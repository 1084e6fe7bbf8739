"""MMKGR: Multi-hop Multi-modal Knowledge Graph Reasoning — reproduction.

A from-scratch Python implementation of the system described in
"MMKGR: Multi-hop Multi-modal Knowledge Graph Reasoning" (ICDE 2023),
including every substrate it depends on: a NumPy autograd / neural-network
library, a multi-modal knowledge-graph data model with synthetic dataset
generators, embedding models for structural features and reward shaping, the
unified gate-attention fusion network, the complementary feature-aware
reinforcement-learning agent with the 3D reward, every ablation variant, and
reimplementations of the baselines the paper compares against.

Typical usage — train once, query many times::

    from repro import Reasoner, build_named_dataset, fast_preset, load_reasoner

    dataset = build_named_dataset("wn9-img-txt", scale=0.5)
    reasoner = Reasoner(preset=fast_preset()).fit(dataset)

    # Single query: ranked entities with their reasoning paths.
    for prediction in reasoner.query("wn9-img-txt/entity_00001", "base_rel_000", k=5):
        print(prediction.entity_name, prediction.score, prediction.render_path())

    # Serving traffic: one lockstep beam search across the whole batch.
    answers = reasoner.query_batch([(head, relation), ...], k=10)

    # Persist and restore without retraining.
    reasoner.save("checkpoints/mmkgr")
    restored = load_reasoner("checkpoints/mmkgr")

    # Or publish versioned copies into a registry and serve them all from
    # one multi-tenant daemon (aliases, hot swap, canary routing).
    from repro import ModelRegistry, ReasoningServer

    registry = ModelRegistry("registry")
    version = registry.publish(reasoner, name="mmkgr")
    registry.promote("mmkgr", "prod", version.version)
    server = ReasoningServer(registry=registry, default_model="mmkgr@prod")

Batch experiments (tables/figures of the paper) run through
:class:`MMKGRPipeline`, :func:`~repro.baselines.fit_baseline` and
:class:`ExperimentRunner`, which sit on top of the same reasoner protocol.
Training and evaluation take the lockstep batched engines whenever they can
drive the agent and the per-query loops otherwise; there is no switch.
"""

from repro.core.ablations import AblationName, build_ablation_pipeline
from repro.core.config import (
    EvaluationConfig,
    ExperimentPreset,
    MMKGRConfig,
    fast_preset,
    paper_preset,
)
from repro.core.evaluator import (
    evaluate_entity_prediction,
    evaluate_relation_prediction,
    hop_distribution,
)
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.experiment import ExperimentRunner
from repro.core.model import MMKGRAgent
from repro.core.trainer import MMKGRPipeline, PipelineResult
from repro.explain import Explainer, build_report, explain_pipeline
from repro.fewshot import build_fewshot_split, evaluate_fewshot
from repro.kg.datasets import (
    MKGDataset,
    SyntheticMKGConfig,
    build_dataset,
    build_named_dataset,
    fb_img_txt_config,
    wn9_img_txt_config,
)
from repro.kg.graph import KnowledgeGraph, Triple
from repro.kg.multimodal import EntityModalities, MultiModalKnowledgeGraph
from repro.serve import (
    DynamicBatcher,
    EmbeddingReasoner,
    ModelRegistry,
    ModelVersion,
    Prediction,
    Reasoner,
    ReasonerProtocol,
    ReasoningServer,
    ServeConfig,
    ServerStats,
    load_reasoner,
)

__version__ = "2.0.0"

__all__ = [
    "Reasoner",
    "ReasonerProtocol",
    "Prediction",
    "EmbeddingReasoner",
    "DynamicBatcher",
    "ModelRegistry",
    "ModelVersion",
    "ReasoningServer",
    "ServeConfig",
    "ServerStats",
    "load_reasoner",
    "save_checkpoint",
    "load_checkpoint",
    "Explainer",
    "explain_pipeline",
    "build_report",
    "build_fewshot_split",
    "evaluate_fewshot",
    "__version__",
    "AblationName",
    "build_ablation_pipeline",
    "MMKGRConfig",
    "EvaluationConfig",
    "ExperimentPreset",
    "fast_preset",
    "paper_preset",
    "evaluate_entity_prediction",
    "evaluate_relation_prediction",
    "hop_distribution",
    "ExperimentRunner",
    "MMKGRAgent",
    "MMKGRPipeline",
    "PipelineResult",
    "MKGDataset",
    "SyntheticMKGConfig",
    "build_dataset",
    "build_named_dataset",
    "wn9_img_txt_config",
    "fb_img_txt_config",
    "KnowledgeGraph",
    "Triple",
    "EntityModalities",
    "MultiModalKnowledgeGraph",
]
