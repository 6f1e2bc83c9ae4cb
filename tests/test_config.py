import json
import math
import re

import pytest

from icdscribe.config import (
    CONFIG_FORMAT,
    OptimizerConfig,
    RunConfig,
    TrainingConfig,
    load_run_config,
    save_run_config,
)
from icdscribe.errors import ContractError
from icdscribe.schema import to_payload


class TestRoundTrip:
    def test_defaults_survive_dict_round_trip(self):
        first = to_payload(RunConfig())
        assert to_payload(RunConfig.from_dict({"format": CONFIG_FORMAT, **first})) == first

    def test_partial_document_materializes_all_defaults(self):
        config = RunConfig.from_dict({"training": {"epochs": 3}})
        assert config.training.epochs == 3
        payload = to_payload(config)
        for section in ("dataset", "encoder", "decoder", "fusion", "optimizer", "training"):
            assert section in payload
        assert payload["fusion"]["lambda_lm"] == 0.3
        assert payload["training"]["clip_norm"] == 5.0

    def test_empty_document_equals_defaults(self):
        assert to_payload(RunConfig.from_dict({})) == to_payload(RunConfig())

    def test_file_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "run.json"
        save_run_config(RunConfig(seed=11), path)
        first = path.read_bytes()
        save_run_config(load_run_config(path), path)
        assert path.read_bytes() == first

    def test_snr_none_means_noiseless(self):
        config = RunConfig.from_dict({"dataset": {"room": {"snr_db": None}}})
        assert math.isinf(config.dataset.room.snr_db)
        assert to_payload(config)["dataset"]["room"]["snr_db"] is None

    def test_custom_speakers_parsed(self):
        config = RunConfig.from_dict(
            {"dataset": {"speakers": [{"speaker_id": "solo", "base_pitch": 99.0}]}}
        )
        assert [s.speaker_id for s in config.dataset.speakers] == ["solo"]
        assert config.dataset.speakers[0].base_pitch == 99.0


class TestStrictness:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"bogus": 1}, "bogus"),
            ({"dataset": {"room": {"rt60x": 1.0}}}, "dataset.room.rt60x"),
            ({"fusion": {"widthx": 2}}, "fusion.widthx"),
            ({"encoder": {"conv": [{"channelz": 4}]}}, "encoder.conv.channelz"),
            ({"training": {"lr": 0.1}}, "training.lr"),
        ],
    )
    def test_unknown_keys_name_their_path(self, payload, fragment):
        with pytest.raises(ContractError, match=fragment.replace(".", r"\.")):
            RunConfig.from_dict(payload)

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(ContractError, match="config-v9"):
            RunConfig.from_dict({"format": "config-v9"})

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ContractError):
            RunConfig.from_dict({"optimizer": [1, 2]})

    def test_speaker_entry_needs_an_id(self):
        with pytest.raises(ContractError, match="speaker_id"):
            RunConfig.from_dict({"dataset": {"speakers": [{"base_pitch": 120.0}]}})

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ContractError, match="JSON"):
            load_run_config(path)


class TestValidation:
    def test_bad_learning_rate(self):
        for bad in ({"lr": 0.0}, {"eps": 0.0}, {"eps": -1e-8}):
            with pytest.raises(ContractError, match=re.escape("outside (0, inf)")):
                OptimizerConfig(**bad)

    def test_bad_epoch_count(self):
        with pytest.raises(ContractError):
            TrainingConfig(epochs=0)

    def test_bad_holdout_fraction(self):
        with pytest.raises(ContractError):
            TrainingConfig(holdout_fraction=1.0)

    def test_bad_decoder_dimension(self):
        with pytest.raises(ContractError, match=re.escape("decoder: hidden 0 outside [1, inf)")):
            RunConfig.from_dict({"decoder": {"hidden": 0}})

    def test_section_validators_fire_through_from_dict(self):
        with pytest.raises(ContractError):
            RunConfig.from_dict({"fusion": {"lambda_lm": -1.0}})

    def test_serialized_document_is_plain_json(self):
        json.dumps(to_payload(RunConfig()))
