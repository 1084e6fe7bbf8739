"""RLH (Wan et al., 2020): hierarchical RL for multi-hop KG reasoning.

RLH decomposes action selection hierarchically (a high-level policy over
relation "clusters", a low-level policy over the edges inside the chosen
cluster), which makes it the strongest multi-hop baseline in the paper.  The
original hierarchy relies on clustering relations; this reimplementation
keeps the two-level decision structure — the policy first scores *relations*
available at the current entity, then scores the edges carrying the chosen
relation — on top of the shared structure-only RL machinery with reward
shaping, which preserves the property that matters for the comparison: a
strong multi-hop reasoner that still has no access to multi-modal features.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.registry import register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.core.model import MMKGRAgent
from repro.core.trainer import MMKGRPipeline
from repro.serve.reasoner import Reasoner
from repro.features.extraction import ModalityConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import MKGDataset
from repro.nn.tensor import Tensor
from repro.rl.environment import EpisodeState
from repro.rl.rewards import RewardConfig
from repro.utils.rng import SeedLike


class HierarchicalAgent(MMKGRAgent):
    """Two-level action scoring: relation level first, then edge level.

    The final log-probability of an edge factorises as
    ``log p(relation | state) + log p(edge | relation, state)``; both factors
    are computed from the same policy head scores, so no extra parameters are
    needed beyond the base agent.
    """

    def action_log_probs(
        self, state: EpisodeState, actions: Sequence[Tuple[int, int]]
    ) -> Tensor:
        base_log_probs = super().action_log_probs(state, actions)
        relations = np.asarray([relation for relation, _ in actions])
        probs = np.exp(base_log_probs.data)
        # High-level distribution over distinct relations.
        relation_mass: Dict[int, float] = {}
        for relation, prob in zip(relations, probs):
            relation_mass[relation] = relation_mass.get(relation, 0.0) + float(prob)
        # log p(edge) = log p(relation) + log p(edge | relation); expressed as
        # a correction added to the differentiable base log-probs so gradients
        # still flow through the policy network.
        corrections = np.array(
            [
                np.log(relation_mass[relation] + 1e-12) - np.log(probs[i] + 1e-12)
                + np.log(probs[i] / (relation_mass[relation] + 1e-12) + 1e-12)
                for i, relation in enumerate(relations)
            ]
        )
        return base_log_probs + Tensor(corrections)


def _rlh_preset(preset: ExperimentPreset) -> ExperimentPreset:
    from dataclasses import replace

    return preset.with_overrides(
        model=replace(preset.model, fusion_variant=FusionVariant.STRUCTURE_ONLY),
        reward=RewardConfig.destination_distance(),
    )


@register_baseline
class RLHBaseline:
    """Hierarchical structure-only RL baseline (the paper's strongest baseline)."""

    name = "RLH"

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> Reasoner:
        preset = _rlh_preset(preset or fast_preset())
        pipeline = MMKGRPipeline(
            dataset,
            preset=preset,
            modalities=ModalityConfig.structure_only(),
            reward_scheme="3d",
            shaping_scorer="transe",
            rng=rng,
        )
        pipeline.build()
        # Swap in the hierarchical agent before training.
        pipeline.agent = HierarchicalAgent(pipeline.features, config=preset.model, rng=rng)
        pipeline.train()
        return Reasoner.from_pipeline(pipeline, name=self.name)
