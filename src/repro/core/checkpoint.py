"""Checkpointing trained MMKGR pipelines.

A checkpoint directory contains everything needed to restore an *evaluable*
pipeline on a fresh process:

* ``checkpoint.json`` — the dataset config, the experiment preset, the
  modality switch, and the reward/fusion options of the pipeline;
* ``structural.npz`` — the pretrained TransE entity/relation embeddings the
  feature store serves;
* ``agent.npz`` — the agent's trainable parameters (fusion network, history
  encoder, policy).

The synthetic datasets are deterministic functions of their config, so the
graph and modalities are regenerated rather than stored.  A graph-only
pipeline (:func:`repro.serve.reasoner.reasoner_over_graph`) has no config to
regenerate from: its CSR graph and feature matrices are saved under
``graph/`` and memory-mapped back on load.  A restored pipeline
can evaluate, explain, and be adapted to few-shot tasks immediately; to
continue REINFORCE training, call :meth:`~repro.core.trainer.MMKGRPipeline.
pretrain_shaper` first so the destination reward has its shaping scorer back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.config_io import (
    dataset_config_from_dict,
    dataset_config_to_dict,
    preset_from_dict,
    preset_to_dict,
)
from repro.core.model import MMKGRAgent
from repro.core.trainer import MMKGRPipeline
from repro.features.extraction import FeatureStore, ModalityConfig
from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.datasets import GraphOnlyDataset, build_dataset
from repro.kg.multimodal import MultiModalKnowledgeGraph
from repro.rl.environment import MKGEnvironment
from repro.rl.rewards import ZeroOneReward, build_reward
from repro.utils.rng import SeedLike

PathLike = Union[str, Path]

CHECKPOINT_FILE = "checkpoint.json"
STRUCTURAL_FILE = "structural.npz"
AGENT_FILE = "agent.npz"
GRAPH_DIR = "graph"
FORMAT_VERSION = 1


def save_checkpoint(pipeline: MMKGRPipeline, directory: PathLike) -> Path:
    """Persist a built (and usually trained) pipeline to ``directory``."""
    if pipeline.agent is None or pipeline.features is None:
        raise RuntimeError("the pipeline has not been built yet; nothing to checkpoint")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    dataset = pipeline.dataset
    if isinstance(dataset, GraphOnlyDataset):
        if not isinstance(dataset.graph, CSRKnowledgeGraph):
            raise TypeError(
                "a graph-only checkpoint stores its graph as CSR arrays; build "
                "the reasoner over a CSRKnowledgeGraph"
            )
        dataset.graph.save(directory / GRAPH_DIR)
        dataset.mkg.save_modalities(directory / GRAPH_DIR)
    manifest = {
        "format_version": FORMAT_VERSION,
        "dataset_config": dataset_config_to_dict(dataset.config),
        "graph_only": isinstance(dataset, GraphOnlyDataset),
        "preset": preset_to_dict(pipeline.preset),
        "modalities": {
            "use_image": pipeline.modalities.use_image,
            "use_text": pipeline.modalities.use_text,
        },
        "reward_scheme": pipeline.reward_scheme,
        "shaping_scorer": pipeline.shaping_scorer,
    }
    (directory / CHECKPOINT_FILE).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    np.savez(
        directory / STRUCTURAL_FILE,
        entity_embeddings=pipeline.features.entity_embeddings,
        relation_embeddings=pipeline.features.relation_embeddings,
    )
    np.savez(directory / AGENT_FILE, **pipeline.agent.state_dict())
    return directory


def read_checkpoint_manifest(directory: PathLike) -> dict:
    """Read (and version-check) a checkpoint directory's manifest."""
    manifest_path = Path(directory) / CHECKPOINT_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"{manifest_path} does not exist; not a checkpoint directory")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    return manifest


def load_checkpoint(directory: PathLike, rng: SeedLike = None) -> MMKGRPipeline:
    """Restore an evaluable pipeline from a checkpoint directory."""
    directory = Path(directory)
    manifest = read_checkpoint_manifest(directory)

    with np.load(directory / STRUCTURAL_FILE) as archive:
        entity_embeddings = archive["entity_embeddings"]
        relation_embeddings = archive["relation_embeddings"]
    with np.load(directory / AGENT_FILE) as archive:
        state = {key: archive[key] for key in archive.files}
    return restore_pipeline(
        manifest, entity_embeddings, relation_embeddings, state, directory, rng=rng
    )


def _restore_dataset(manifest: dict, directory: Path):
    if not manifest.get("graph_only"):
        return build_dataset(dataset_config_from_dict(manifest["dataset_config"]))
    graph = CSRKnowledgeGraph.load(directory / GRAPH_DIR, mmap=True)
    mkg = MultiModalKnowledgeGraph.load_modalities(directory / GRAPH_DIR, graph)
    return GraphOnlyDataset.wrap(mkg, name=manifest["dataset_config"]["name"])


def restore_pipeline(
    manifest: dict,
    entity_embeddings: np.ndarray,
    relation_embeddings: np.ndarray,
    agent_state: dict,
    directory: PathLike,
    rng: SeedLike = None,
    copy: bool = True,
) -> MMKGRPipeline:
    """Rebuild a pipeline from a checkpoint manifest plus weight arrays.

    The arrays usually come straight out of the checkpoint's ``.npz``
    archives (:func:`load_checkpoint`), but the serving arena path hands in
    read-only memory-mapped views instead and sets ``copy=False`` so the
    restored agent's parameters stay views into the mmap — zero weight
    copies per worker process.  ``directory`` is the checkpoint itself,
    which holds the graph of a graph-only pipeline.
    """
    dataset = _restore_dataset(manifest, Path(directory))
    preset = preset_from_dict(manifest["preset"])
    modalities = ModalityConfig(**manifest["modalities"])
    pipeline = MMKGRPipeline(
        dataset,
        preset=preset,
        modalities=modalities,
        reward_scheme=manifest["reward_scheme"],
        shaping_scorer=manifest["shaping_scorer"],
        rng=rng,
    )

    features = FeatureStore(
        dataset.mkg,
        structural_dim=entity_embeddings.shape[1],
        modalities=modalities,
        rng=pipeline.rng,
    )
    features.set_structural_embeddings(entity_embeddings, relation_embeddings)
    pipeline.features = features
    pipeline.environment = MKGEnvironment(
        dataset.train_graph,
        max_steps=preset.model.max_steps,
        max_actions=preset.model.max_actions,
    )
    # The reward is rebuilt without its shaping scorer (the scorer is cheap to
    # re-train via pretrain_shaper() when training resumes); evaluation and
    # explanation do not consult the reward at all.
    if manifest["reward_scheme"] == "zero_one":
        pipeline.reward = ZeroOneReward()
    else:
        pipeline.reward = build_reward(
            config=preset.reward,
            scorer=None,
            relation_embeddings=features.relation_embeddings,
        )

    agent = MMKGRAgent(features, config=preset.model, rng=pipeline.rng)
    agent.load_state_dict(agent_state, copy=copy)
    pipeline.agent = agent
    return pipeline


def checkpoint_exists(directory: PathLike) -> bool:
    """Whether ``directory`` looks like a complete checkpoint."""
    directory = Path(directory)
    return all(
        (directory / name).exists()
        for name in (CHECKPOINT_FILE, STRUCTURAL_FILE, AGENT_FILE)
    )


def checkpoint_summary(directory: PathLike) -> Optional[dict]:
    """The manifest of a checkpoint directory (``None`` if absent)."""
    directory = Path(directory)
    manifest_path = directory / CHECKPOINT_FILE
    if not manifest_path.exists():
        return None
    return json.loads(manifest_path.read_text(encoding="utf-8"))
