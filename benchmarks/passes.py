"""One benchmark job, run in a process of its own.

    python3 benchmarks/passes.py SPEC.json

SPEC["job"] is "inputs" or a workload name.  "inputs" writes the
workload's inputs from the seed and is not timed.  A workload job runs
one whole command of that workload (a "pass") and times it.  The result
is written as JSON to SPEC["result"].

Every pass gets a fresh interpreter, as a user's command does: caches
inside the process start cold, and the peak RSS is that command's own.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from icdscribe import audio, checkpoint, cli, data, fusion, metrics  # noqa: E402
from icdscribe import lm as lm_module  # noqa: E402

# The README smoke dataset (repeats 1, cap 1: 40 utterances of spk0 and
# spk1) with the default model.  Four epochs keep one training command
# near 10 s on one core while the decoder already emits varied lengths.
SMOKE_CONFIG = {
    "dataset": {"repeats": 1, "cap": 1},
    "training": {"epochs": 4, "holdout_fraction": 0.0, "wer_every": 0},
}
# The first 3 held-out spk2 utterances of each code of the default dataset:
# 60 of 785.  A plain prefix of the manifest would hold a single code.
HELD_OUT_PER_CODE = 3


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    job = spec["job"]
    if job == "inputs":
        result = make_inputs(spec)
    else:
        tracer = None
        if spec["trace"]:
            import tracer as tracer_module  # untraced passes load no tracing code

            tracer = tracer_module.Tracer()
        with tracer if tracer is not None else contextlib.nullcontext():
            result = PASSES[job](spec, tracer)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            utterances = len(result["utt_s"])
            result["trace"] = tracer.summary()
            result["trace"]["accounted_s"] = tracer.accounted_seconds(utterances)
            header = {"job": job, "seed": spec["seed"], "machine": machine()}
            tracer.write_spans(spec["spans"], header, origin=result.pop("origin"))
        result.pop("origin", None)
    Path(spec["result"]).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu": platform.processor() or platform.machine(),
    }


def run_cli(argv):
    """icdscribe's own entry point, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"icdscribe {argv[0]} exited with {code}: {out.getvalue()[-500:]}")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def last_log_record(ckpt_path):
    lines = Path(ckpt_path).with_suffix(".log.jsonl").read_text(encoding="utf-8").splitlines()
    return json.loads(lines[-1])


class Probe:
    """Marks utterance boundaries with one clock read each, traced or not.

    `wrap` hooks a call on one module attribute; `mark` records the time
    and tells the tracer, if any, which utterance starts next.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.marks = []
        self._patches = []

    def wrap(self, owner, attr, on_enter=None, on_exit=None):
        fn = getattr(owner, attr)

        def probed(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            result = fn(*args, **kwargs)
            if on_exit is not None:
                on_exit(result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, probed)

    def mark(self, *_):
        self.marks.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.utt = len(self.marks) - 1

    def intervals(self):
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        return False


# ----------------------------------------------------------------- inputs


def make_inputs(spec):
    """Datasets, LM and (for decoding workloads) the trained fixture."""
    work = Path(spec["work"])
    seed = spec["seed"]
    smoke_cfg = work / "smoke-config.json"
    smoke_cfg.write_text(json.dumps(SMOKE_CONFIG), encoding="utf-8")
    run_cli(["generate-data", "--config", smoke_cfg, "--output", work / "smoke", "--seed", seed])
    run_cli(["train-lm", "--corpus", work / "smoke" / "corpus.txt", "--order", 3,
             "--output", work / "lm.json"])
    inputs = {"machine": machine()}
    if spec["workload"] == "train":
        return inputs

    # fixture checkpoint: trained by the code under test, not timed
    ckpt = work / "model.ckpt"
    run_cli(["train", "--config", smoke_cfg, "--data", work / "smoke", "--lm", work / "lm.json",
             "--output", ckpt, "--seed", seed])
    inputs["train_loss"] = last_log_record(ckpt)["loss"]
    run_cli(["generate-data", "--output", work / "full", "--seed", seed])
    held_out = data.load_manifest(work / "full" / "test.json")
    by_code = {}
    for record in held_out.records:
        by_code.setdefault(record.code, []).append(record)
    held_out.records = [r for records in by_code.values() for r in records[:HELD_OUT_PER_CODE]]
    data.save_manifest(held_out, work / "held-out.json")
    if spec["workload"] == "transcribe":
        write_wavs(held_out, work / "wav")
    return inputs


def write_wavs(manifest, out_dir):
    """Each held-out utterance as the 16-bit wav of the far-field audio it is featurized from."""
    out_dir.mkdir()
    captured = []
    featurize = data.stft_logmel

    def capture(waveform, **kwargs):
        captured.append(waveform)
        return featurize(waveform, **kwargs)

    vocab = manifest.vocabulary
    entries = []
    data.stft_logmel = capture
    try:
        for index, record in enumerate(manifest.records):
            utt = data.realize_utterance(manifest, record)
            path = out_dir / f"{index:04d}.wav"
            audio.write_wav(path, captured.pop())
            entries.append({
                "id": f"{utt.code}/{utt.speaker_id}/{utt.variation_index}",
                "wav": str(path),
                "reference": vocab.decode(utt.target),
            })
    finally:
        data.stft_logmel = featurize
    (out_dir / "list.json").write_text(json.dumps(entries), encoding="utf-8")


# ----------------------------------------------------------------- passes


def train_pass(spec, tracer):
    """`icdscribe train` on the smoke dataset; one update per utterance and epoch."""
    work = Path(spec["work"])
    out = work / f"pass{spec['index']}.ckpt"
    expected = len(data.load_manifest(work / "smoke" / "train.json").records)
    expected *= SMOKE_CONFIG["training"]["epochs"]
    with Probe(tracer) as probe:
        counted = {}

        def tensors():
            return 0 if tracer is None else tracer.tensors["other"]

        def entered(_):
            probe.mark()
            counted["tensors"] = tensors()

        def left(_):
            counted["tensors"] = tensors() - counted["tensors"]

        # setup ends where training starts; each Adam update ends one step
        probe.wrap(cli, "train_with_scheduled_lm_sampling", on_enter=entered, on_exit=left)
        probe.wrap(fusion, "adam_step", on_exit=probe.mark)
        start = time.perf_counter()
        error = None
        try:
            run_cli(["train", "--config", work / "smoke-config.json", "--data", work / "smoke",
                     "--lm", work / "lm.json", "--output", out, "--seed", spec["seed"]])
        except Exception as exc:  # a failed command is counted, not fatal
            error = repr(exc)
        end = time.perf_counter()
    steps = probe.intervals()
    result = {
        "origin": start,
        "command_s": end - start,
        "setup_s": probe.marks[0] - start if probe.marks else end - start,
        "utt_s": steps,
        "attempted": expected,
        "failed": max(0, expected - len(steps)) if error is None else expected,
        "errors": [] if error is None else [error],
        "tensors_in_training": counted.get("tensors", 0),
    }
    if error is None:
        record = last_log_record(out)
        result.update(digest=sha256(out), train_loss=record["loss"], wer=record["wer"])
        if not math.isfinite(record["loss"]) or record["wer"] is None:
            result["errors"].append(f"final log record lacks a finite loss or a wer: {record}")
        if len(steps) != expected:
            result["errors"].append(f"{len(steps)} updates, expected {expected}")
    for path in (out, out.with_suffix(".log.jsonl")):
        path.unlink(missing_ok=True)
    return result


def evaluate_pass(spec, tracer):
    """`icdscribe evaluate`: realize, beam-decode and score the held-out manifest."""
    work = Path(spec["work"])
    report_path = work / f"report{spec['index']}.json"
    manifest = data.load_manifest(work / "held-out.json")
    words = set(manifest.vocabulary.content_words)
    hypotheses = []
    with Probe(tracer) as probe:
        # setup ends where decoding starts; each transcript ends one utterance
        probe.wrap(cli, "evaluate_dataset", on_enter=probe.mark)
        probe.wrap(fusion, "transcribe", on_exit=lambda hyp: (probe.mark(), hypotheses.append(hyp)))
        start = time.perf_counter()
        error = None
        try:
            run_cli(["evaluate", "--ckpt", work / "model.ckpt", "--lm", work / "lm.json",
                     "--manifest", work / "held-out.json", "--output", report_path,
                     "--seed", spec["seed"]])
        except Exception as exc:  # a failed command is counted, not fatal
            error = repr(exc)
        end = time.perf_counter()
    expected = len(manifest.records)
    invalid = sum(1 for hyp in hypotheses if not set(hyp) <= words)
    result = {
        "origin": start,
        "command_s": end - start,
        "setup_s": probe.marks[0] - start if probe.marks else end - start,
        "utt_s": probe.intervals(),
        "attempted": expected,
        "failed": expected - len(hypotheses) + invalid if error is None else expected,
        "errors": [] if error is None else [error],
    }
    if invalid:
        result["errors"].append(f"{invalid} hypotheses hold words outside the vocabulary")
    if error is None:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        result.update(digest=sha256(report_path), wer=report["corpus_wer"])
        if report["utterances"] != expected or len(hypotheses) != expected:
            result["errors"].append(
                f"decoded {len(hypotheses)} and reported {report['utterances']} of {expected}"
            )
    report_path.unlink(missing_ok=True)
    return result


def transcribe_pass(spec, tracer):
    """Decode the held-out wavs: read_wav, frontend_spectrogram, beam_search_decode."""
    work = Path(spec["work"])
    entries = json.loads((work / "wav" / "list.json").read_text(encoding="utf-8"))
    start = time.perf_counter()
    ckpt = checkpoint.load_checkpoint(work / "model.ckpt")
    model = checkpoint.build_model(ckpt)
    lm = lm_module.load_lm(work / "lm.json")
    setup_end = time.perf_counter()
    cfg = ckpt.config.fusion
    frontend = ckpt.config.dataset.frontend
    vocab = ckpt.vocabulary
    words = set(vocab.content_words)
    lines, utt_s, errors, pairs = [], [], [], []
    for index, entry in enumerate(entries):
        if tracer is not None:
            tracer.utt = index
        began = time.perf_counter()
        try:
            waveform = audio.read_wav(entry["wav"])
            spectrogram = audio.frontend_spectrogram(waveform, frontend)
            best = fusion.beam_search_decode(model, lm, spectrogram, cfg, vocab)
            hypothesis = vocab.decode(best.tokens)
            lines.append(f"{entry['id']}\t{' '.join(hypothesis)}\t{best.fused:.6f}")
        except Exception as exc:  # a failed utterance is counted, not fatal
            errors.append(f"{entry['id']}: {exc!r}")
            continue
        took = time.perf_counter() - began
        if not set(hypothesis) <= words:
            errors.append(f"{entry['id']}: words outside the vocabulary")
            continue
        utt_s.append(took)
        pairs.append((entry["reference"], hypothesis))
    end = time.perf_counter()
    if tracer is not None:
        tracer.utt = None
    transcript = ("\n".join(lines) + "\n").encode("utf-8")
    scored = [metrics.wer(ref, hyp) for ref, hyp in pairs]
    reference_words = sum(b.reference_length for b in scored)
    return {
        "origin": start,
        "command_s": end - start,
        "setup_s": setup_end - start,
        "utt_s": utt_s,
        "attempted": len(entries),
        "failed": len(entries) - len(pairs),
        "errors": errors,
        "digest": hashlib.sha256(transcript).hexdigest(),
        "wer": sum(b.errors for b in scored) / max(1, reference_words),
    }


PASSES = {"train": train_pass, "evaluate": evaluate_pass, "transcribe": transcribe_pass}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
