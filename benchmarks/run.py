"""icdscribe benchmark: train, evaluate and transcribe workloads.

    python3 benchmarks/run.py --workload {train,evaluate,transcribe,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; icdscribe is imported from
./src, nothing is installed.  Inputs are generated from --seed.  The
workload's command is then run again and again, each time in a fresh
process (a "pass"), until --seconds have been spent; one client, closed
loop, BLAS limited to one thread.  Every pass is checked: artifacts must
be byte-identical across passes, the loss finite, every hypothesis made of
vocabulary words, and every utterance decoded.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the traced ones,
plus the tracing overhead; spans go to .bench_out/trace/.  The last line
of standard output is one JSON object; the lines above it are for people.
See benchmarks/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PASSES = Path(__file__).resolve().with_name("passes.py")
OUT = ROOT / ".bench_out"
WORKLOADS = ("train", "evaluate", "transcribe")
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "utt_per_s": "1/s",
    "utt_ms_p50": "ms",
    "utt_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "wer": "ratio",
    "train_loss": "nats",
}
# functions the traced run wraps; a "model." name is a Seq2SeqModel method
LAYER_NAMES = (
    "audio.synthesize_word", "audio.apply_far_field", "audio.stft_logmel", "audio.read_wav",
    "data.realize_utterance",
    "model.encode", "model.attend", "model.decode_step", "model.forward_teacher_forced",
    "autodiff.backward", "autodiff.clip_global_norm", "autodiff.adam_step",
    "lm.prob", "lm.sample_next", "lm.load_lm",
    "fusion.beam_search_decode", "fusion.greedy_decode", "fusion.sampled_inputs",
    "metrics.build_report",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint", "checkpoint.build_model",
)
COUNTER_UNITS = {
    "audio.room_conv_macs": "macs_computed",
    "data.word_synth_unique_ratio": "ratio",
    "autodiff.tensors_per_step": "count",
    "autodiff.tensors_per_decode": "count",
    "fusion.hyps_expanded_per_utt": "count",
    "fusion.lm_prob_per_utt": "count",
    "fusion.tokens_per_utt": "count",
    "fusion.maxlen_stop_frac": "ratio",
    "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


class Runner:
    """Starts the job processes of one workload run and collects their results."""

    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.jobs = 0
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    def run(self, job, **extra):
        """Run one job to completion; returns (result, wall seconds)."""
        self.jobs += 1
        spec_path = self.work / f"job{self.jobs}.json"
        spec = dict(extra, job=job, workload=self.workload, seed=self.seed, work=str(self.work),
                    result=str(self.work / f"job{self.jobs}.result.json"))
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PASSES), str(spec_path)], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, self.deadline - time.monotonic()),
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{job} job exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(Path(spec["result"]).read_text(encoding="utf-8")), wall


def run_workload(workload, seed, seconds, trace):
    """Returns (result object, human-readable lines)."""
    started = time.monotonic()
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, started + DEADLINE_S)
    try:
        inputs, _ = runner.run("inputs")
        passes, errors = [], []
        measured = time.monotonic()
        last = 0.0
        while True:
            # stop where the measured time lands nearest to --seconds
            elapsed = time.monotonic() - measured
            if len(passes) >= 2 and elapsed + last / 2 >= seconds:
                break
            if time.monotonic() + last > runner.deadline:
                break
            traced = bool(trace) and len(passes) % 2 == 1
            extra = {"index": len(passes), "trace": traced}
            if traced:
                (OUT / "trace").mkdir(exist_ok=True)
                extra["spans"] = str(OUT / "trace" / f"{workload}-seed{seed}.jsonl")
            began = time.monotonic()
            try:
                result, wall = runner.run(workload, **extra)
                result.update(wall_s=wall, traced=traced)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                errors.append(str(exc))
                result = {"failed_pass": True}
            last = time.monotonic() - began
            passes.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, inputs, passes, errors)


def summarize(workload, seed, trace, inputs, passes, errors):
    ran = [p for p in passes if not p.get("failed_pass")]
    per_pass = max([p["attempted"] for p in ran], default=1)
    attempted = sum(p.get("attempted", per_pass) for p in passes)
    failed = sum(p.get("failed", per_pass) for p in passes)
    errors = errors + [e for p in ran for e in p["errors"]]
    done = [p for p in ran if "digest" in p]  # the command completed
    digests = {p["digest"] for p in done}
    if len(digests) > 1:
        errors.append(f"artifacts differ across passes: {len(digests)} distinct sha256")
    correct = not errors and failed == 0 and len(done) == len(passes)

    m = inputs["machine"]
    lines = [
        f"== workload {workload}, seed {seed}, trace {trace}: {len(passes)} passes, "
        f"{attempted} utterances attempted, {failed} failed",
        f"machine: {m['cores']} cores ({m['usable_cores']} usable, {m['cpu']}), "
        f"python {m['python']}, numpy {m['numpy']}, BLAS {m['blas']} "
        f"with {m['blas_threads']} thread(s)",
        f"fail_frac {failed / max(1, attempted):.4f} ({failed} of {attempted} utterances)",
    ]
    lines += [f"check failed: {e}" for e in errors[:10]]
    if sum(len(p["utt_s"]) for p in done) < 2:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, lines
    if trace:
        metrics, extra_lines = layer_metrics(done)
    else:
        metrics, extra_lines = end_to_end_metrics(workload, inputs, done)
    lines += extra_lines
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, lines


def end_to_end_metrics(workload, inputs, passes):
    utt_ms = [1000.0 * t for p in passes for t in p["utt_s"]]
    deciles = statistics.quantiles(utt_ms, n=10, method="inclusive")
    loss = (statistics.median(p["train_loss"] for p in passes)
            if workload == "train" else inputs["train_loss"])
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "utt_per_s": 1000.0 * len(utt_ms) / sum(utt_ms),
        "utt_ms_p50": deciles[4],
        "utt_ms_p90": deciles[8],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "wer": statistics.median(p["wer"] for p in passes),
        "train_loss": loss,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    samples = "updates" if workload == "train" else "utterances"
    lines = [f"{name:<12} {value:12.4f} {unit:<6}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"utt_ms_p50/p90 over {len(utt_ms)} {samples} ({len(utt_ms) // 10} beyond p90); "
        f"setup_s, wall_s and peak_rss_mb are medians of {len(passes)} passes"
    )
    return metrics, lines


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = max(1, len(traced))
    traces = [p["trace"] for p in traced]

    def total(key, *path):
        value = 0.0
        for t in traces:
            entry = t[key]
            for part in path:
                entry = entry[part]
            value += entry
        return value

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (total("stats", name, 0) / n, "count")
        metrics[f"{name}.self_ms"] = (1000.0 * total("stats", name, 1) / n, "ms")
    decodes = total("decodes")
    utt_s = sum(sum(p["utt_s"]) for p in traced)
    counters = {
        "audio.room_conv_macs": total("room_conv_macs") / n,
        "data.word_synth_unique_ratio": _ratio(total("synth_unique"),
                                               total("stats", "audio.synthesize_word", 0)),
        "autodiff.tensors_per_step": _ratio(sum(p.get("tensors_in_training", 0) for p in traced),
                                            total("stats", "autodiff.adam_step", 0)),
        "autodiff.tensors_per_decode": _ratio(total("tensors", "decode"), decodes),
        "fusion.hyps_expanded_per_utt": _ratio(total("in_decode", "model.decode_step"), decodes),
        "fusion.lm_prob_per_utt": _ratio(total("in_decode", "lm.prob"), decodes),
        "fusion.tokens_per_utt": _ratio(total("decoded_tokens"), decodes),
        "fusion.maxlen_stop_frac": _ratio(total("maxlen_stops"), decodes),
        "checkpoint.bytes": total("checkpoint_bytes") / n,
        "trace.overhead_frac": (
            statistics.median(p["command_s"] for p in traced)
            / statistics.median(p["command_s"] for p in plain) - 1.0
            if traced and plain else 0.0
        ),
        "trace.unaccounted_frac": 1.0 - _ratio(sum(t["accounted_s"] for t in traces), utt_s)
        if utt_s else 0.0,
    }
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (counters[name], unit)
    return metrics, baseline_rows(traces, traced, n) + [
        f"{name:<40} {value:14.4f} {unit}" for name, (value, unit) in metrics.items()
    ]


def baseline_rows(traces, traced, n):
    """The ROADMAP Baseline-table rows this workload exercises, from traced passes."""

    def calls(name):
        return sum(t["stats"][name][0] for t in traces)

    def ms(name):
        return 1000.0 * sum(t["stats"][name][2] for t in traces)  # inclusive time

    def per(value, count):
        return f"{_ratio(value, count):.2f}"

    rows = [f"-- traced: {len(traced)} pass(es); inclusive times, averaged per call"]
    realized = calls("data.realize_utterance")
    if realized:
        rows.append(
            f"realize per utterance {per(ms('data.realize_utterance'), realized)} ms: "
            f"synthesis {per(ms('audio.synthesize_word'), realized)}, "
            f"room convolution {per(ms('audio.apply_far_field'), realized)}, "
            f"STFT + mel {per(ms('audio.stft_logmel'), realized)} ms ({realized:.0f} utterances)"
        )
    steps = calls("autodiff.adam_step")
    if steps:
        update = sum(ms(f"autodiff.{f}") for f in ("backward", "clip_global_norm", "adam_step"))
        rows.append(
            f"train step: forward {per(ms('model.forward_teacher_forced'), steps)} ms, "
            f"backward + clip + Adam {per(update, steps)} ms, "
            f"LM input sampling {per(ms('fusion.sampled_inputs'), steps)} ms ({steps:.0f} steps)"
        )
    for name, label in (("fusion.beam_search_decode", "beam decode"),
                        ("fusion.greedy_decode", "greedy decode")):
        if calls(name):
            rows.append(
                f"{label} {per(ms(name), calls(name))} ms/utt ({calls(name):.0f} utterances)"
            )
    reports = calls("metrics.build_report")
    if reports:
        pairs = sum(len(p["utt_s"]) for p in traced)
        rows.append(f"build_report {per(ms('metrics.build_report'), reports)} "
                    f"ms over {pairs / n:.0f} pairs x 1000 resamples")
    for label in ("save", "load"):
        name = f"checkpoint.{label}_checkpoint"
        if calls(name):
            rows.append(f"checkpoint {label} {per(ms(name) / 1000.0, calls(name))} s, "
                        f"{sum(t['checkpoint_bytes'] for t in traces) / n / 1e6:.1f} MB")
    rows.append("audio.room_conv_macs is computed as samples x IR taps, not measured")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description="icdscribe benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "icdscribe" / "__init__.py").is_file():
        print(f"error: no icdscribe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result, lines = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[workload] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": v for w, r in results.items() for name, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
