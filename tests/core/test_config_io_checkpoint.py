"""Tests for preset/dataset-config serialisation and pipeline checkpoints."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.checkpoint import (
    checkpoint_exists,
    checkpoint_summary,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.config import fast_preset, paper_preset
from repro.core.config_io import (
    dataset_config_from_dict,
    dataset_config_to_dict,
    load_dataset_config,
    load_preset,
    preset_from_dict,
    preset_to_dict,
    save_dataset_config,
    save_preset,
)
from repro.core.trainer import MMKGRPipeline
from repro.features.extraction import ModalityConfig
from repro.fusion.variants import FusionVariant
from repro.kg.datasets import build_dataset

# Presets written before 2.0 carry the retired ``vectorized`` engine toggle,
# always ``true``, in these three sections.
_RETIRED_TOGGLE_SECTIONS = ("reinforce", "imitation", "evaluation")


def _with_retired_toggle(preset_payload: dict) -> dict:
    """A parent-format preset dict: ``"vectorized": true`` in each section."""
    payload = json.loads(json.dumps(preset_payload))
    for section in _RETIRED_TOGGLE_SECTIONS:
        payload[section]["vectorized"] = True
    return payload


class TestPresetSerialisation:
    @pytest.mark.parametrize("factory", [fast_preset, paper_preset])
    def test_round_trip_preserves_every_field(self, factory):
        preset = factory()
        rebuilt = preset_from_dict(preset_to_dict(preset))
        assert rebuilt == preset

    def test_payload_is_json_serialisable(self):
        payload = preset_to_dict(fast_preset())
        assert json.loads(json.dumps(payload)) == payload

    def test_fusion_variant_round_trips_as_string(self):
        preset = fast_preset()
        preset = preset.with_overrides(
            model=type(preset.model)(
                **{**preset_to_dict(preset)["model"], "fusion_variant": "concatenation"}
            )
        )
        payload = preset_to_dict(preset)
        assert payload["model"]["fusion_variant"] == "concatenation"
        assert preset_from_dict(payload).model.fusion_variant is FusionVariant.CONCATENATION

    def test_save_and_load_file(self, tmp_path):
        preset = fast_preset()
        path = save_preset(preset, tmp_path / "preset.json")
        assert load_preset(path) == preset

    @pytest.mark.parametrize("factory", [fast_preset, paper_preset])
    def test_parent_format_preset_drops_retired_vectorized_key(self, factory, tmp_path):
        preset = factory()
        payload = _with_retired_toggle(preset_to_dict(preset))
        assert preset_from_dict(payload) == preset
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(payload))
        assert load_preset(path) == preset

    def test_other_unknown_keys_still_rejected(self):
        payload = preset_to_dict(fast_preset())
        payload["evaluation"]["vectorised"] = True
        with pytest.raises(TypeError):
            preset_from_dict(payload)


class TestDatasetConfigSerialisation:
    def test_round_trip(self, tiny_dataset_config):
        payload = dataset_config_to_dict(tiny_dataset_config)
        assert dataset_config_from_dict(payload) == tiny_dataset_config

    def test_save_and_load_file(self, tiny_dataset_config, tmp_path):
        path = save_dataset_config(tiny_dataset_config, tmp_path / "dataset.json")
        assert load_dataset_config(path) == tiny_dataset_config

    def test_rebuilt_config_generates_identical_graph(self, tiny_dataset_config):
        payload = dataset_config_to_dict(tiny_dataset_config)
        original = build_dataset(tiny_dataset_config)
        rebuilt = build_dataset(dataset_config_from_dict(payload))
        assert original.graph.num_triples == rebuilt.graph.num_triples
        assert [t.as_tuple() for t in original.splits.test] == [
            t.as_tuple() for t in rebuilt.splits.test
        ]


class TestCheckpoint:
    @pytest.fixture(scope="class")
    def built_pipeline(self, request):
        dataset = request.getfixturevalue("tiny_dataset")
        preset = request.getfixturevalue("tiny_preset")
        pipeline = MMKGRPipeline(dataset, preset=preset, modalities=ModalityConfig.full())
        pipeline.build()
        return pipeline

    def test_save_requires_built_pipeline(self, tiny_dataset, tiny_preset, tmp_path):
        pipeline = MMKGRPipeline(tiny_dataset, preset=tiny_preset)
        with pytest.raises(RuntimeError):
            save_checkpoint(pipeline, tmp_path / "ckpt")

    def test_save_creates_expected_files(self, built_pipeline, tmp_path):
        directory = save_checkpoint(built_pipeline, tmp_path / "ckpt")
        assert checkpoint_exists(directory)
        summary = checkpoint_summary(directory)
        assert summary["reward_scheme"] == "3d"
        assert summary["format_version"] == 1

    def test_load_restores_agent_parameters(self, built_pipeline, tmp_path):
        directory = save_checkpoint(built_pipeline, tmp_path / "ckpt")
        restored = load_checkpoint(directory)
        original_state = built_pipeline.agent.state_dict()
        restored_state = restored.agent.state_dict()
        assert set(original_state) == set(restored_state)
        for key in original_state:
            np.testing.assert_allclose(original_state[key], restored_state[key])

    def test_load_restores_structural_embeddings(self, built_pipeline, tmp_path):
        directory = save_checkpoint(built_pipeline, tmp_path / "ckpt")
        restored = load_checkpoint(directory)
        np.testing.assert_allclose(
            built_pipeline.features.entity_embeddings,
            restored.features.entity_embeddings,
        )

    def test_restored_pipeline_evaluates_identically(self, built_pipeline, tmp_path):
        directory = save_checkpoint(built_pipeline, tmp_path / "ckpt")
        restored = load_checkpoint(directory)
        triples = built_pipeline.dataset.splits.test[:5]
        original_metrics = built_pipeline.evaluate(triples)
        restored_metrics = restored.evaluate(triples)
        assert original_metrics == pytest.approx(restored_metrics)

    def test_parent_format_manifest_evaluates_identically(self, built_pipeline, tmp_path):
        directory = save_checkpoint(built_pipeline, tmp_path / "ckpt")
        triples = built_pipeline.dataset.splits.test[:5]
        current_metrics = load_checkpoint(directory).evaluate(triples)
        manifest_path = directory / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["preset"] = _with_retired_toggle(manifest["preset"])
        manifest_path.write_text(json.dumps(manifest))
        restored = load_checkpoint(directory)
        assert restored.preset == built_pipeline.preset
        assert restored.evaluate(triples) == current_metrics

    def test_load_rejects_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing")

    def test_load_rejects_unknown_version(self, built_pipeline, tmp_path):
        directory = save_checkpoint(built_pipeline, tmp_path / "ckpt")
        manifest_path = directory / "checkpoint.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_checkpoint(directory)

    def test_checkpoint_summary_absent(self, tmp_path):
        assert checkpoint_summary(tmp_path) is None
        assert not checkpoint_exists(tmp_path)
