"""The package names that the benchmark harness in benchmarks/ reaches into.

benchmarks/run.py lists the functions its traced passes wrap, the
transcribe pass featurizes wavs through `audio.frontend_spectrogram`, and
`passes.write_wavs` captures each held-out far-field waveform by replacing
`data.stft_logmel` with a stand-in that takes the waveform as its only
positional argument.  A change that breaks one of these otherwise shows
up only in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

from icdscribe import audio, data
from icdscribe.audio import RoomModel
from icdscribe.data import DatasetConfig, IcdCode, generate_dataset
from icdscribe.model import Seq2SeqModel

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def layer_names():
    """The LAYER_NAMES tuple of benchmarks/run.py, read without importing it."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_NAMES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no LAYER_NAMES")


class TestBenchmarkSeams:
    def test_every_layer_name_resolves(self):
        names = layer_names()
        assert names
        for name in names:
            module_name, attr = name.split(".")
            module = importlib.import_module(f"icdscribe.{module_name}")
            owner = Seq2SeqModel if module_name == "model" else module
            assert callable(getattr(owner, attr, None)), name

    def test_frontend_spectrogram_is_the_featurizer(self):
        assert audio.frontend_spectrogram is audio.stft_logmel

    def test_keyword_stand_in_sees_each_far_field_waveform(self, monkeypatch):
        codes = [IcdCode("R52", ["pain"]), IcdCode("M54.5", ["low", "back", "pain"])]
        config = DatasetConfig(seed=2, repeats=2, cap=2, room=RoomModel(rt60=0.05))
        manifest = generate_dataset(codes, config)
        real = [data.realize_utterance(manifest, r).spectrogram for r in manifest.records]

        degrade, featurize = data.apply_far_field, data.stft_logmel
        far_fields, captured = [], []

        def far_field(*args, **kwargs):
            far_fields.append(degrade(*args, **kwargs))
            return far_fields[-1]

        def stand_in(waveform, **kwargs):
            captured.append(waveform)
            return featurize(waveform, **kwargs)

        monkeypatch.setattr(data, "apply_far_field", far_field)
        monkeypatch.setattr(data, "stft_logmel", stand_in)
        for record, want in zip(manifest.records, real, strict=True):
            got = data.realize_utterance(manifest, record).spectrogram
            assert got.tobytes() == want.tobytes()
            (waveform,) = captured
            assert waveform is far_fields[-1]
            captured.clear()
            again = audio.stft_logmel(waveform, config.frontend)
            assert again.tobytes() == want.tobytes()
