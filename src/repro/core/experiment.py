"""Experiment runner: regenerates every table and figure of the paper.

Each ``table*_...`` / ``fig*_...`` method returns plain dictionaries/lists so
the benchmark harness (and the examples) can print them in the paper's
layout.  The runner is deliberately stateless apart from a dataset cache; all
scale knobs live in the :class:`ExperimentPreset` so that tests, benches and
full runs only differ in the preset they pass.

The evaluation protocols behind Tables III/IV and Figs. 6-7 walk their test
queries in lockstep through the batched beam-search engine whenever it can
drive the agent (see :mod:`repro.core.evaluator`), so regenerating the tables
is no longer dominated by per-query beam-search dispatch.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import json

from repro.baselines.registry import fit_baseline
from repro.core.ablations import AblationName, build_ablation_pipeline
from repro.core.config import EvaluationConfig, ExperimentPreset, fast_preset
from repro.core.config_io import preset_to_dict
from repro.core.evaluator import evaluate_entity_prediction, hop_distribution
from repro.core.trainer import MMKGRPipeline, PipelineResult
from repro.features.extraction import ModalityConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import MKGDataset, build_named_dataset
from repro.kg.splits import sample_triples
from repro.rl.reinforce import ReinforceConfig
from repro.rl.rewards import RewardConfig
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, new_rng

LOGGER = get_logger("core.experiment")

DEFAULT_BASELINES = ("MTRL", "NeuralLP", "MINERVA", "FIRE", "GAATs", "RLH")


class ExperimentRunner:
    """Regenerates the paper's experiments on the synthetic datasets."""

    def __init__(
        self,
        dataset_names: Sequence[str] = ("wn9-img-txt", "fb-img-txt"),
        preset: Optional[ExperimentPreset] = None,
        seed: int = 3,
        registry=None,
    ):
        self.dataset_names = tuple(dataset_names)
        self.preset = preset or fast_preset()
        self.seed = seed
        # With a registry (a ModelRegistry or its root path), every reasoner
        # this runner trains is published as `<dataset>.<model>`'s next
        # version, so table regeneration doubles as a model-release step.
        if registry is not None:
            from repro.serve.registry import ModelRegistry

            if not isinstance(registry, ModelRegistry):
                registry = ModelRegistry(registry)
        self.registry = registry
        self._datasets: Dict[str, MKGDataset] = {}
        # Trained reasoners keyed by (dataset, model, preset fingerprint) so
        # tables that share a trained model (III and IV) do not retrain it.
        self._reasoners: Dict[Tuple[str, str, str], object] = {}

    # ------------------------------------------------------------- datasets
    def dataset(self, name: str) -> MKGDataset:
        """Build (and cache) the named synthetic dataset at the preset's scale."""
        if name not in self._datasets:
            self._datasets[name] = build_named_dataset(
                name, scale=self.preset.dataset_scale, seed=self.seed
            )
        return self._datasets[name]

    def table2_statistics(self) -> List[List]:
        """Table II: dataset statistics rows."""
        rows = []
        for name in self.dataset_names:
            stats = self.dataset(name).statistics
            rows.append(stats.as_row())
        return rows

    # ------------------------------------------------------ trained reasoners
    def _preset_fingerprint(self, preset: ExperimentPreset) -> str:
        return json.dumps(preset_to_dict(preset), sort_keys=True, default=str)

    def reasoner_for(
        self,
        dataset_name: str,
        model: str,
        preset: Optional[ExperimentPreset] = None,
    ):
        """The trained reasoner for ``(dataset, model, preset)``, cached.

        ``model`` is ``"MMKGR"`` or a registered baseline name.  Tables that
        need the same trained model (entity metrics in Table III, relation
        MAP in Table IV, the step curves of Fig. 8) share one training run
        through this cache instead of refitting per table.
        """
        preset = preset or self.preset
        key = (dataset_name, model, self._preset_fingerprint(preset))
        if key not in self._reasoners:
            dataset = self.dataset(dataset_name)
            LOGGER.info("training %s on %s", model, dataset_name)
            if model == "MMKGR":
                pipeline = MMKGRPipeline(dataset, preset=preset, rng=self.seed)
                pipeline.train()
                self._reasoners[key] = pipeline.reasoner()
            else:
                self._reasoners[key] = fit_baseline(
                    model, dataset, preset=preset, rng=self.seed
                )
            if self.registry is not None:
                published = self.registry.publish(
                    self._reasoners[key], name=f"{dataset_name}.{model}"
                )
                LOGGER.info("published %s", published.ref)
        return self._reasoners[key]

    # ----------------------------------------------------------- main tables
    def table3_entity_link_prediction(
        self,
        dataset_name: str,
        baselines: Sequence[str] = DEFAULT_BASELINES,
        include_mmkgr: bool = True,
    ) -> Dict[str, Dict[str, float]]:
        """Table III: entity link prediction for MMKGR and the baselines."""
        dataset = self.dataset(dataset_name)
        models = list(baselines) + (["MMKGR"] if include_mmkgr else [])
        results: Dict[str, Dict[str, float]] = {}
        for name in models:
            reasoner = self.reasoner_for(dataset_name, name)
            results[name] = reasoner.entity_metrics(
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=self.preset.evaluation,
                rng=self.seed,
            )
        return results

    def table4_relation_map(
        self,
        dataset_name: str,
        baselines: Sequence[str] = ("MTRL", "MINERVA", "RLH"),
        include_mmkgr: bool = True,
    ) -> Dict[str, Dict[str, float]]:
        """Table IV: relation link prediction MAP (per relation + overall).

        Reuses the reasoners trained for Table III (same dataset and preset)
        instead of training a second copy of each model.
        """
        dataset = self.dataset(dataset_name)
        models = list(baselines) + (["MMKGR"] if include_mmkgr else [])
        results: Dict[str, Dict[str, float]] = {}
        for name in models:
            reasoner = self.reasoner_for(dataset_name, name)
            results[name] = reasoner.relation_metrics(
                dataset.splits.test, config=self.preset.evaluation, rng=self.seed
            )
        return results

    # ------------------------------------------------------------- ablations
    def run_ablation(self, dataset_name: str, name: AblationName) -> PipelineResult:
        """Train and evaluate one named ablation variant."""
        dataset = self.dataset(dataset_name)
        pipeline = build_ablation_pipeline(dataset, name, preset=self.preset, rng=self.seed)
        return pipeline.run()

    def table5_modality_ablation(self, dataset_name: str) -> Dict[str, Dict[str, float]]:
        """Table V: OSKGR / STKGR / SIKGR / MMKGR."""
        variants = (
            AblationName.OSKGR,
            AblationName.STKGR,
            AblationName.SIKGR,
            AblationName.MMKGR,
        )
        return {
            variant.value: self.run_ablation(dataset_name, variant).entity_metrics
            for variant in variants
        }

    def fig4_fusion_ablation(self, dataset_name: str) -> Dict[str, Dict[str, float]]:
        """Fig. 4: FGKGR / FAKGR / MMKGR."""
        variants = (AblationName.FGKGR, AblationName.FAKGR, AblationName.MMKGR)
        return {
            variant.value: self.run_ablation(dataset_name, variant).entity_metrics
            for variant in variants
        }

    def fig5_reward_ablation(self, dataset_name: str) -> Dict[str, Dict[str, float]]:
        """Fig. 5: DEKGR / DSKGR / DVKGR / MMKGR."""
        variants = (
            AblationName.DEKGR,
            AblationName.DSKGR,
            AblationName.DVKGR,
            AblationName.MMKGR,
        )
        return {
            variant.value: self.run_ablation(dataset_name, variant).entity_metrics
            for variant in variants
        }

    # ----------------------------------------------------------- path studies
    def table6_step_threshold_sweep(
        self,
        dataset_name: str,
        steps: Sequence[int] = (2, 3, 4),
        thresholds: Sequence[int] = (2, 3, 4),
    ) -> Dict[Tuple[int, int], float]:
        """Table VI: Hits@1 for each (threshold k, max step T) combination."""
        dataset = self.dataset(dataset_name)
        results: Dict[Tuple[int, int], float] = {}
        for threshold in thresholds:
            for max_steps in steps:
                if threshold > max_steps:
                    continue
                preset = self.preset.with_overrides(
                    model=replace(self.preset.model, max_steps=max_steps),
                    reward=replace(self.preset.reward, distance_threshold=threshold),
                )
                pipeline = MMKGRPipeline(dataset, preset=preset, rng=self.seed)
                metrics = pipeline.run().entity_metrics
                results[(threshold, max_steps)] = metrics.get("hits@1", float("nan"))
        return results

    def fig8_hits_vs_steps(
        self,
        dataset_name: str,
        steps: Sequence[int] = (2, 3, 4),
        models: Sequence[str] = ("MINERVA", "RLH", "MMKGR"),
    ) -> Dict[str, Dict[int, float]]:
        """Fig. 8: Hits@1 of RL models as the maximum reasoning step grows."""
        dataset = self.dataset(dataset_name)
        curves: Dict[str, Dict[int, float]] = {name: {} for name in models}
        for max_steps in steps:
            preset = self.preset.with_overrides(
                model=replace(self.preset.model, max_steps=max_steps)
            )
            for name in models:
                reasoner = self.reasoner_for(dataset_name, name, preset=preset)
                metrics = reasoner.entity_metrics(
                    dataset.splits.test,
                    filter_graph=dataset.graph,
                    config=preset.evaluation,
                    rng=self.seed,
                )
                curves[name][max_steps] = metrics.get("hits@1", float("nan"))
        return curves

    def fig6_7_hop_distribution(
        self, dataset_name: str, variants: Sequence[AblationName] = (
            AblationName.MMKGR, AblationName.DVKGR, AblationName.OSKGR
        )
    ) -> Dict[str, Dict[str, float]]:
        """Figs. 6-7: hop distribution of successfully answered test queries."""
        dataset = self.dataset(dataset_name)
        distributions = {}
        for variant in variants:
            pipeline = build_ablation_pipeline(dataset, variant, preset=self.preset, rng=self.seed)
            pipeline.train()
            distributions[variant.value] = pipeline.hop_distribution()
        return distributions

    # -------------------------------------------------------- fusion studies
    def table7_naive_fusion(
        self,
        dataset_name: str,
        models: Sequence[str] = ("MINERVA", "FIRE", "RLH"),
    ) -> Dict[str, Dict[str, float]]:
        """Table VII: Hits@1 change when naive fusion is bolted onto RL baselines.

        For each RL baseline the structure-only run is compared against runs
        whose policy consumes naively fused multi-modal features (conventional
        attention and plain concatenation).  Reported values are relative
        Hits@1 changes in percent, matching the paper's layout.
        """
        dataset = self.dataset(dataset_name)
        results: Dict[str, Dict[str, float]] = {}
        for name in models:
            base_metrics = self.reasoner_for(dataset_name, name).entity_metrics(
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=self.preset.evaluation,
                rng=self.seed,
            )
            base_hits = base_metrics.get("hits@1", 0.0)
            row: Dict[str, float] = {"base_hits@1": base_hits}
            for label, variant in (
                ("attention", FusionVariant.CONVENTIONAL_ATTENTION),
                ("concatenation", FusionVariant.CONCATENATION),
            ):
                fused_metrics = self._run_rl_with_naive_fusion(dataset, name, variant)
                fused_hits = fused_metrics.get("hits@1", 0.0)
                change = 0.0
                if base_hits > 0:
                    change = 100.0 * (fused_hits - base_hits) / base_hits
                row[f"{label}_hits@1"] = fused_hits
                row[f"{label}_change_pct"] = change
            results[name] = row
        return results

    def _run_rl_with_naive_fusion(
        self, dataset: MKGDataset, baseline_name: str, variant: FusionVariant
    ) -> Dict[str, float]:
        """Re-run an RL baseline with a naive multi-modal fuser in its policy."""
        reward_scheme = "zero_one" if baseline_name == "MINERVA" else "3d"
        reward = (
            RewardConfig.destination_only()
            if baseline_name == "FIRE"
            else RewardConfig.destination_distance()
        )
        preset = self.preset.with_overrides(
            model=replace(self.preset.model, fusion_variant=variant),
            reward=reward,
        )
        pipeline = MMKGRPipeline(
            dataset,
            preset=preset,
            modalities=ModalityConfig.full(),
            reward_scheme=reward_scheme,
            shaping_scorer="none" if baseline_name == "MINERVA" else "transe",
            rng=self.seed,
        )
        return pipeline.run().entity_metrics

    def table8_test_proportions(
        self,
        dataset_name: str,
        proportions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    ) -> Dict[float, Dict[str, float]]:
        """Table VIII: MMKGR vs OSKGR Hits@1 on sampled test subsets."""
        dataset = self.dataset(dataset_name)
        mmkgr = build_ablation_pipeline(
            dataset, AblationName.MMKGR, preset=self.preset, rng=self.seed
        )
        oskgr = build_ablation_pipeline(
            dataset, AblationName.OSKGR, preset=self.preset, rng=self.seed
        )
        mmkgr.train()
        oskgr.train()
        results: Dict[float, Dict[str, float]] = {}
        rng = new_rng(self.seed)
        for proportion in proportions:
            subset = sample_triples(dataset.splits.test, proportion, rng=rng)
            results[proportion] = {
                "MMKGR": mmkgr.evaluate(subset).get("hits@1", float("nan")),
                "OSKGR": oskgr.evaluate(subset).get("hits@1", float("nan")),
            }
        return results

    # -------------------------------------------------- convergence / sweeps
    def fig9_convergence(
        self,
        dataset_name: str,
        variants: Sequence[AblationName] = (
            AblationName.DEKGR,
            AblationName.DSKGR,
            AblationName.DVKGR,
            AblationName.MMKGR,
            AblationName.ZOKGR,
        ),
    ) -> Dict[str, List[float]]:
        """Fig. 9: reward/convergence trajectories per reward variant.

        The paper plots validation MRR per epoch; tracking MRR every epoch is
        expensive, so the per-epoch mean training reward and success rate are
        recorded instead — the same signal that distinguishes converging from
        non-converging reward schemes.
        """
        dataset = self.dataset(dataset_name)
        curves: Dict[str, List[float]] = {}
        for variant in variants:
            pipeline = build_ablation_pipeline(dataset, variant, preset=self.preset, rng=self.seed)
            history = pipeline.train()
            curves[variant.value] = list(history.epoch_success_rates)
        return curves

    def fig10_epoch_batch_sweep(
        self,
        dataset_name: str,
        epochs: Sequence[int] = (5, 10, 20),
        batch_sizes: Sequence[int] = (32, 128),
    ) -> Dict[Tuple[int, int], float]:
        """Fig. 10: Hits@1 as a function of epochs E and batch size N."""
        dataset = self.dataset(dataset_name)
        results: Dict[Tuple[int, int], float] = {}
        for num_epochs in epochs:
            for batch_size in batch_sizes:
                preset = self.preset.with_overrides(
                    reinforce=replace(
                        self.preset.reinforce, epochs=num_epochs, batch_size=batch_size
                    )
                )
                pipeline = MMKGRPipeline(dataset, preset=preset, rng=self.seed)
                metrics = pipeline.run().entity_metrics
                results[(num_epochs, batch_size)] = metrics.get("hits@1", float("nan"))
        return results

    def fig11_bandwidth_sweep(
        self, dataset_name: str, bandwidths: Sequence[float] = (1.0, 3.0, 6.0)
    ) -> Dict[float, Dict[str, float]]:
        """Fig. 11: MRR / Hits@1 as the diversity-reward bandwidth u varies."""
        dataset = self.dataset(dataset_name)
        results: Dict[float, Dict[str, float]] = {}
        for bandwidth in bandwidths:
            preset = self.preset.with_overrides(
                reward=replace(self.preset.reward, bandwidth=bandwidth)
            )
            pipeline = MMKGRPipeline(dataset, preset=preset, rng=self.seed)
            metrics = pipeline.run().entity_metrics
            results[bandwidth] = {
                "mrr": metrics.get("mrr", float("nan")),
                "hits@1": metrics.get("hits@1", float("nan")),
            }
        return results

    def fig12_lambda_sweep(
        self,
        dataset_name: str,
        combinations: Sequence[Tuple[float, float, float]] = (
            (0.1, 0.8, 0.1),
            (0.2, 0.6, 0.2),
            (0.3, 0.4, 0.3),
            (0.4, 0.2, 0.4),
        ),
    ) -> Dict[Tuple[float, float, float], float]:
        """Fig. 12: Hits@1 for different reward-weight combinations (λ1, λ2, λ3)."""
        dataset = self.dataset(dataset_name)
        results: Dict[Tuple[float, float, float], float] = {}
        for lambdas in combinations:
            l1, l2, l3 = lambdas
            preset = self.preset.with_overrides(
                reward=replace(
                    self.preset.reward,
                    lambda_destination=l1,
                    lambda_distance=l2,
                    lambda_diversity=l3,
                )
            )
            pipeline = MMKGRPipeline(dataset, preset=preset, rng=self.seed)
            metrics = pipeline.run().entity_metrics
            results[lambdas] = metrics.get("hits@1", float("nan"))
        return results
