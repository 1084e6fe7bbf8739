"""Serialising experiment presets and dataset configs to and from JSON.

Two consumers need configurations as plain data rather than Python objects:
the checkpoint format (so a trained model can be reloaded with exactly the
settings it was trained under) and the command-line interface (so experiments
can be driven by a config file).  Dataclasses are converted field-by-field;
the only non-JSON value in the tree is the :class:`FusionVariant` enum, which
round-trips through its string value.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Union

from repro.core.config import (
    EvaluationConfig,
    ExperimentPreset,
    MMKGRConfig,
)
from repro.embeddings.trainer import EmbeddingTrainingConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import SyntheticMKGConfig
from repro.rl.imitation import ImitationConfig
from repro.rl.reinforce import ReinforceConfig
from repro.rl.rewards import RewardConfig

PathLike = Union[str, Path]


# --------------------------------------------------------------------- presets
def preset_to_dict(preset: ExperimentPreset) -> Dict[str, object]:
    """Convert an :class:`ExperimentPreset` to a JSON-serialisable dictionary."""
    payload = asdict(preset)
    payload["model"]["fusion_variant"] = preset.model.fusion_variant.value
    # Tuples become lists under asdict; normalise explicitly for clarity.
    payload["evaluation"]["hits_at"] = list(preset.evaluation.hits_at)
    return payload


# Sections whose retired ``vectorized`` engine toggle (always ``true`` in the
# presets written before 2.0) is dropped on load, so old checkpoints and
# registry versions still open.
_RETIRED_ENGINE_TOGGLE_SECTIONS = ("reinforce", "imitation", "evaluation")


def preset_from_dict(payload: Dict[str, object]) -> ExperimentPreset:
    """Rebuild an :class:`ExperimentPreset` from :func:`preset_to_dict` output."""
    data = dict(payload)
    for section in _RETIRED_ENGINE_TOGGLE_SECTIONS:
        data[section] = {
            key: value for key, value in data[section].items() if key != "vectorized"
        }
    model = dict(data.pop("model"))
    model["fusion_variant"] = FusionVariant(model.get("fusion_variant", "full"))
    evaluation = data.pop("evaluation")
    evaluation["hits_at"] = tuple(evaluation.get("hits_at", (1, 5, 10)))
    return ExperimentPreset(
        name=data["name"],
        model=MMKGRConfig(**model),
        reward=RewardConfig(**data.pop("reward")),
        reinforce=ReinforceConfig(**data.pop("reinforce")),
        imitation=ImitationConfig(**data.pop("imitation")),
        embedding=EmbeddingTrainingConfig(**data.pop("embedding")),
        evaluation=EvaluationConfig(**evaluation),
        dataset_scale=float(data.get("dataset_scale", 1.0)),
    )


def save_preset(preset: ExperimentPreset, path: PathLike) -> Path:
    """Write a preset as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(preset_to_dict(preset), indent=2), encoding="utf-8")
    return path


def load_preset(path: PathLike) -> ExperimentPreset:
    """Read a preset previously written by :func:`save_preset`."""
    path = Path(path)
    return preset_from_dict(json.loads(path.read_text(encoding="utf-8")))


# -------------------------------------------------------------- dataset configs
def dataset_config_to_dict(config: SyntheticMKGConfig) -> Dict[str, object]:
    """Convert a synthetic dataset config to a JSON-serialisable dictionary."""
    return asdict(config)


def dataset_config_from_dict(payload: Dict[str, object]) -> SyntheticMKGConfig:
    """Rebuild a :class:`SyntheticMKGConfig` from its dictionary form."""
    return SyntheticMKGConfig(**payload)


def save_dataset_config(config: SyntheticMKGConfig, path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dataset_config_to_dict(config), indent=2), encoding="utf-8")
    return path


def load_dataset_config(path: PathLike) -> SyntheticMKGConfig:
    path = Path(path)
    return dataset_config_from_dict(json.loads(path.read_text(encoding="utf-8")))
