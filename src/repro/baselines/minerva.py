"""MINERVA (Das et al., 2018): RL multi-hop reasoning with a sparse 0/1 reward.

MINERVA walks the graph with an LSTM-conditioned policy and receives a
terminal reward of 1 only when it stops at the gold answer.  It uses only
structural features — no multi-modal input — and no reward shaping, which is
exactly the combination the paper identifies as vulnerable to the sparse
reward problem.

Implementation: the shared RL machinery (environment, history LSTM, policy,
REINFORCE) with the structure-only fuser and the 0/1 reward.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.registry import register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.core.trainer import MMKGRPipeline
from repro.features.extraction import ModalityConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import MKGDataset
from repro.serve.reasoner import Reasoner
from repro.utils.rng import SeedLike


def _structure_only_preset(preset: ExperimentPreset) -> ExperimentPreset:
    from dataclasses import replace

    return preset.with_overrides(
        model=replace(preset.model, fusion_variant=FusionVariant.STRUCTURE_ONLY)
    )


@register_baseline
class MinervaBaseline:
    """Structure-only REINFORCE walker with the sparse 0/1 terminal reward."""

    name = "MINERVA"

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> Reasoner:
        preset = _structure_only_preset(preset or fast_preset())
        pipeline = MMKGRPipeline(
            dataset,
            preset=preset,
            modalities=ModalityConfig.structure_only(),
            reward_scheme="zero_one",
            shaping_scorer="none",
            rng=rng,
        )
        pipeline.train()
        return Reasoner.from_pipeline(pipeline, name=self.name)
