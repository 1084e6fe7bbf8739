"""End-to-end MMKGR training pipeline.

The pipeline reproduces the full training recipe of the paper:

1. pre-train TransE on the training graph to obtain the structural features
   (Section IV-B1);
2. pre-train the reward-shaping scorer (ConvE by default) used by the
   destination reward (Eq. 13);
3. build the feature store, the unified gate-attention network (or a variant),
   the 3D reward, and the policy, and train the agent with REINFORCE;
4. evaluate with beam search on held-out triples.

Every stage is exposed separately so ablations and benches can swap pieces
without re-implementing the plumbing.  The train/serve boundary is explicit:
:meth:`MMKGRPipeline.train` produces the trained agent,
:meth:`MMKGRPipeline.reasoner` wraps it as a queryable
:class:`~repro.serve.reasoner.Reasoner`, and :meth:`MMKGRPipeline.run` stays
as the one-call train+evaluate shim the experiment tables use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import EvaluationConfig, ExperimentPreset, fast_preset
from repro.core.evaluator import (
    evaluate_entity_prediction,
    evaluate_relation_prediction,
    hop_distribution,
)
from repro.core.model import MMKGRAgent
from repro.embeddings.conve import ConvE
from repro.embeddings.transe import TransE
from repro.embeddings.trainer import EmbeddingTrainer
from repro.features.extraction import FeatureStore, ModalityConfig
from repro.kg.datasets import MKGDataset
from repro.kg.graph import Triple
from repro.rl.environment import MKGEnvironment
from repro.rl.imitation import ImitationTrainer
from repro.rl.reinforce import ReinforceTrainer, TrainingHistory
from repro.rl.rewards import ZeroOneReward, build_reward
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, new_rng

LOGGER = get_logger("core.trainer")


@dataclass
class PipelineResult:
    """Everything produced by a pipeline run."""

    agent: MMKGRAgent
    environment: MKGEnvironment
    features: FeatureStore
    training_history: TrainingHistory
    entity_metrics: Dict[str, float] = field(default_factory=dict)
    relation_metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def mrr(self) -> float:
        return self.entity_metrics.get("mrr", float("nan"))

    def hits(self, k: int) -> float:
        return self.entity_metrics.get(f"hits@{k}", float("nan"))


class MMKGRPipeline:
    """Builds and trains the MMKGR agent (or one of its variants) on a dataset."""

    def __init__(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        modalities: Optional[ModalityConfig] = None,
        reward_scheme: str = "3d",
        shaping_scorer: str = "transe",
        rng: SeedLike = None,
    ):
        if reward_scheme not in {"3d", "zero_one"}:
            raise ValueError(f"unknown reward scheme {reward_scheme!r}")
        if shaping_scorer not in {"transe", "conve", "none"}:
            raise ValueError(f"unknown shaping scorer {shaping_scorer!r}")
        self.dataset = dataset
        self.preset = preset or fast_preset()
        self.modalities = modalities or ModalityConfig.full()
        self.reward_scheme = reward_scheme
        self.shaping_scorer = shaping_scorer
        self.rng = new_rng(self.preset.model.seed if rng is None else rng)

        self.features: Optional[FeatureStore] = None
        self.agent: Optional[MMKGRAgent] = None
        self.environment: Optional[MKGEnvironment] = None
        self.reward = None
        self._transe: Optional[TransE] = None
        self._shaper = None

    @classmethod
    def from_components(
        cls,
        dataset,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        features: FeatureStore,
        preset: Optional[ExperimentPreset] = None,
        modalities: Optional[ModalityConfig] = None,
        rng: SeedLike = None,
    ) -> "MMKGRPipeline":
        """Assemble a pipeline around already-built components, skipping training.

        Used by the scale-demo serving path (:func:`repro.serve.reasoner.
        reasoner_over_graph`): the agent keeps its initialization weights and
        the dataset may be a bare :class:`~repro.kg.datasets.GraphOnlyDataset`
        with no splits — such a pipeline can serve queries but not train.
        """
        pipeline = cls(
            dataset,
            preset=preset,
            modalities=modalities or getattr(features, "modalities", None),
            reward_scheme="zero_one",
            shaping_scorer="none",
            rng=rng,
        )
        pipeline.features = features
        pipeline.environment = environment
        pipeline.agent = agent
        return pipeline

    # ----------------------------------------------------------------- stages
    def pretrain_structure(self, verbose: bool = False) -> TransE:
        """Stage 1: TransE structural embeddings on the training graph."""
        model_config = self.preset.model
        transe = TransE(
            self.dataset.train_graph,
            embedding_dim=model_config.structural_dim,
            rng=self.rng,
        )
        trainer = EmbeddingTrainer(transe, self.preset.embedding, rng=self.rng)
        trainer.fit(self.dataset.splits.train, verbose=verbose)
        self._transe = transe
        return transe

    def pretrain_shaper(self, verbose: bool = False):
        """Stage 2: the scorer used by destination-reward shaping."""
        if self.shaping_scorer == "none":
            self._shaper = None
            return None
        if self.shaping_scorer == "transe":
            # Reuse the structural TransE: cheap and already trained.
            if self._transe is None:
                self.pretrain_structure(verbose=verbose)
            self._shaper = self._transe
            return self._shaper
        conve = ConvE(
            self.dataset.train_graph,
            embedding_dim=min(self.preset.model.structural_dim, 32),
            rng=self.rng,
        )
        trainer = EmbeddingTrainer(conve, self.preset.embedding, rng=self.rng)
        trainer.fit(self.dataset.splits.train, verbose=verbose)
        self._shaper = conve
        return conve

    def build(self) -> MMKGRAgent:
        """Stage 3: assemble feature store, environment, reward, and agent."""
        if self._transe is None:
            self.pretrain_structure()
        if self._shaper is None and self.shaping_scorer != "none":
            self.pretrain_shaper()

        self.features = FeatureStore(
            self.dataset.mkg,
            structural_dim=self.preset.model.structural_dim,
            modalities=self.modalities,
            rng=self.rng,
        )
        self.features.set_structural_embeddings(
            self._transe.entity_embeddings, self._transe.relation_embeddings
        )
        self.environment = MKGEnvironment(
            self.dataset.train_graph,
            max_steps=self.preset.model.max_steps,
            max_actions=self.preset.model.max_actions,
        )
        if self.reward_scheme == "zero_one":
            self.reward = ZeroOneReward()
        else:
            self.reward = build_reward(
                config=self.preset.reward,
                scorer=self._shaper,
                relation_embeddings=self.features.relation_embeddings,
            )
        self.agent = MMKGRAgent(self.features, config=self.preset.model, rng=self.rng)
        return self.agent

    def warm_start(self, verbose: bool = False) -> List[float]:
        """Stage 4a: supervised path-imitation warm start (shared by all RL models)."""
        if self.agent is None:
            self.build()
        if self.preset.imitation.epochs == 0:
            return []
        trainer = ImitationTrainer(
            self.agent, self.environment, config=self.preset.imitation, rng=self.rng
        )
        return trainer.fit(self.dataset.splits.train, verbose=verbose)

    def train(self, verbose: bool = False, epoch_callback=None) -> TrainingHistory:
        """Stage 4: imitation warm start followed by REINFORCE fine-tuning.

        Both stages roll out through the lockstep batched engine when it can
        drive the agent, and through the per-query loop otherwise.
        """
        if self.agent is None:
            self.build()
        self.warm_start(verbose=verbose)
        trainer = ReinforceTrainer(
            self.agent,
            self.environment,
            self.reward,
            config=self.preset.reinforce,
            rng=self.rng,
        )
        return trainer.fit(
            self.dataset.splits.train, verbose=verbose, epoch_callback=epoch_callback
        )

    # ----------------------------------------------------------------- serving
    def reasoner(
        self,
        name: str = "MMKGR",
        beam_width: Optional[int] = None,
        cache_size: int = 4096,
    ):
        """The trained pipeline as a queryable serving facade.

        This is the explicit train-once / query-many boundary: call
        :meth:`train` (or :meth:`run`) first, then hand the returned
        :class:`~repro.serve.reasoner.Reasoner` to serving code — it answers
        ``(head, relation, ?)`` queries, batches beam search across queries,
        and persists via ``save``/``load`` without retraining.
        """
        from repro.serve.reasoner import Reasoner

        if self.agent is None:
            raise RuntimeError("the pipeline has not been trained yet")
        return Reasoner.from_pipeline(
            self, name=name, beam_width=beam_width, cache_size=cache_size
        )

    def publish(
        self,
        registry,
        name: str = "MMKGR",
        metrics: Optional[Dict[str, float]] = None,
        beam_width: Optional[int] = None,
        cache_size: int = 4096,
    ):
        """Publish the trained pipeline as the next version of ``name``.

        ``registry`` is a :class:`~repro.serve.registry.ModelRegistry` or a
        registry root path; ``metrics`` optionally snapshots evaluation
        numbers into the version manifest.  Returns the published
        :class:`~repro.serve.registry.ModelVersion`.
        """
        from repro.serve.registry import ModelRegistry

        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        reasoner = self.reasoner(name=name, beam_width=beam_width, cache_size=cache_size)
        return registry.publish(reasoner, name=name, metrics=metrics)

    # -------------------------------------------------------------- end-to-end
    def run(
        self,
        evaluate_relations: bool = False,
        test_triples: Optional[Sequence[Triple]] = None,
        verbose: bool = False,
    ) -> PipelineResult:
        """Full pipeline: pretrain, train, and evaluate on the test split."""
        history = self.train(verbose=verbose)
        test = list(test_triples) if test_triples is not None else self.dataset.splits.test
        evaluation = self.preset.evaluation
        entity_metrics = evaluate_entity_prediction(
            self.agent,
            self.environment,
            test,
            filter_graph=self.dataset.graph,
            config=evaluation,
            rng=self.rng,
        )
        relation_metrics: Dict[str, float] = {}
        if evaluate_relations:
            relation_metrics = evaluate_relation_prediction(
                self.agent,
                self.environment,
                test,
                config=evaluation,
                rng=self.rng,
            )
        if verbose:
            LOGGER.info("entity metrics: %s", entity_metrics)
        return PipelineResult(
            agent=self.agent,
            environment=self.environment,
            features=self.features,
            training_history=history,
            entity_metrics=entity_metrics,
            relation_metrics=relation_metrics,
        )

    # ------------------------------------------------------------ convenience
    def evaluate(
        self,
        test_triples: Optional[Sequence[Triple]] = None,
        config: Optional[EvaluationConfig] = None,
    ) -> Dict[str, float]:
        """Entity link prediction metrics of the (already trained) agent."""
        if self.agent is None:
            raise RuntimeError("the pipeline has not been trained yet")
        test = list(test_triples) if test_triples is not None else self.dataset.splits.test
        return evaluate_entity_prediction(
            self.agent,
            self.environment,
            test,
            filter_graph=self.dataset.graph,
            config=config or self.preset.evaluation,
            rng=self.rng,
        )

    def hop_distribution(self, max_hops: int = 4) -> Dict[str, float]:
        """Hop distribution of successfully answered test queries (Figs. 6-7).

        Success uses the same filtered protocol (and the same full-graph
        filter) as :meth:`evaluate`'s Hits@1, so the distribution covers the
        same solved-query set as Table III.
        """
        if self.agent is None:
            raise RuntimeError("the pipeline has not been trained yet")
        return hop_distribution(
            self.agent,
            self.environment,
            self.dataset.splits.test,
            filter_graph=self.dataset.graph,
            config=self.preset.evaluation,
            max_hops=max_hops,
            rng=self.rng,
        )
