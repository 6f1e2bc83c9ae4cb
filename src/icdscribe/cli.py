"""Command-line entry point for the transcription pipeline.

Subcommands cover the whole workflow: synthesize a dataset, train the
language model, train the acoustic model, evaluate, and transcribe.
Every command is reproducible from its persisted config and seed alone.
`train` hands training the run config and loops over the epoch records it
yields: it scores a measuring epoch with `evaluate`'s code at beam width 1,
logs the record, and checkpoints a better score.  `evaluate` decodes a
manifest and `transcribe` one wav, each with the checkpoint's fusion
settings or `--lambda-lm` and `--beam`.  Every command that realizes a
manifest does so on the calling thread and the helper at once
(`data.iter_utterances`): `train` its whole set up front, `evaluate` the
next utterances while the current one is decoded.

Exit codes: 0 success, 2 configuration or validation problem, 3 i/o.
"""

import argparse
import ctypes
import dataclasses
import errno
import logging
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

from .autodiff import AdamState
from .checkpoint import (
    build_model,
    fresh_model,
    load_checkpoint,
    restore_optimizer,
    save_checkpoint,
)
from .config import RunConfig, load_run_config, save_run_config
from .data import (
    bundled_icd_path,
    generate_dataset,
    iter_utterances,
    load_icd_list,
    load_manifest,
    save_manifest,
    split_by_speaker,
)
from .audio import read_wav, stft_logmel
from .errors import ContractError
from .fusion import EpochRecord, beam_search_decode, check_vocabulary_alignment, evaluate_dataset
from .fusion import train_with_scheduled_lm_sampling
from .lm import Corpus, load_lm, perplexity, save_lm, train_lm
from .metrics import format_report
from .schema import (atomic_write, decode_document, from_payload, read_lines, to_payload,
                     write_document)

log = logging.getLogger("icdscribe")
# glibc's mallopt(3) parameters, and the values `_keep_freed_memory` gives them: an mmap
# threshold about five times the largest array of the default dataset's longest utterance (its
# 0.83 MB STFT magnitude table, 402 frames), and a trim threshold above one utterance's
# temporaries (at 4 MiB, `stft_logmel` kept two thirds of its faults)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 4 << 20, 8 << 20


def _libc(name):
    """The running program's C library function `name`, or None where it has no such call."""
    try:
        return getattr(ctypes.CDLL(None), name)
    except (OSError, TypeError, AttributeError):  # no C library to load, or no `name` in it
        return None


def _keep_freed_memory():
    """Let each utterance reuse the heap blocks the previous one freed (glibc's allocator).

    By default glibc maps each block above 128 KiB afresh and returns a freed
    heap top to the kernel, so every utterance's arrays fault in zero pages
    again.  A fixed mmap threshold (which also stops it sliding) above those
    arrays and a higher trim threshold keep the pages in the process.  Where
    the C library has no `mallopt` (macOS, Windows) nothing changes.
    """
    mallopt = _libc("mallopt")
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _return_freed_memory():
    """Hand the heap's free pages back to the kernel (glibc's `malloc_trim`).

    `train` calls it once it has realized its whole set: the temporaries
    realization freed, and the holes between the spectrograms it keeps,
    would otherwise stay resident under `_keep_freed_memory`'s thresholds
    while training faults in its gradient and Adam state.  `evaluate`
    realizes as it decodes, so it keeps its pages for the next utterance.
    Where the C library has no `malloc_trim` nothing changes.
    """
    malloc_trim = _libc("malloc_trim")
    if malloc_trim is None:
        return
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    malloc_trim(0)


def _check_output(path):
    """Refuse an output whose directory does not exist (exit 3), before any work is done."""
    if path is not None and not Path(path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, f"no directory {str(Path(path).parent)!r} to "
                                f"write into", str(path))


def _load_config(args):
    config = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:  # replaced, so the seed is checked
        config = dataclasses.replace(config, seed=args.seed,
                                     dataset=dataclasses.replace(config.dataset, seed=args.seed))
    return config


def cmd_generate_data(args):
    config = _load_config(args)
    codes = load_icd_list(args.codes if args.codes else bundled_icd_path())
    manifest = generate_dataset(codes, config.dataset)
    held_out = args.holdout or config.dataset.speakers[-1].speaker_id
    train, test = split_by_speaker(manifest, held_out)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_run_config(config, out / "config.json")
    save_manifest(train, out / "train.json")
    save_manifest(test, out / "test.json")
    with atomic_write(out / "corpus.txt") as fh:
        fh.write("".join(" ".join(code.words) + "\n" for code in codes).encode("utf-8"))

    vocab = manifest.vocabulary
    print(f"codes: {len(codes)}")
    print(f"vocabulary: {len(vocab.content_words)} words")
    kept = ", ".join(s.speaker_id for s in config.dataset.speakers if s.speaker_id != held_out)
    print(f"train utterances: {len(train.records)} (speakers {kept})")
    print(f"test utterances: {len(test.records)} (speaker {held_out})")
    print(f"wrote config.json, corpus.txt, train.json, test.json to {out}")
    return 0


def cmd_train_lm(args):
    corpus = Corpus.from_lines(read_lines(args.corpus))
    if not corpus.sentences:
        raise ContractError(f"corpus {args.corpus} contains no sentences")
    lm = train_lm(corpus, max_order=args.order)
    save_lm(lm, args.output)
    print(f"sentences: {len(corpus.sentences)}")
    print(f"vocabulary: {corpus.unique_words} words")
    print(f"training perplexity: {perplexity(lm, corpus.sentences):.4f}")
    print(f"wrote {args.output}")
    return 0


def _log_before(path, step):
    """Log records at `path` before epoch `step`, kept on resume; a torn last line is skipped."""
    try:
        lines = read_lines(path)
    except FileNotFoundError:
        return []
    decode = partial(from_payload, EpochRecord)
    records = [decode_document(path, line.encode("utf-8"), None, decode)
               for line in lines if line.endswith("\n")]
    return [r for r in records if r.epoch < step]


def _peak_rss_mb():
    """The process's peak resident memory in MB (2**20 bytes), or None without `resource`."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _peak_rss_note():
    """The tail of an INFO line that states the peak RSS, or "" where it is not known."""
    peak = _peak_rss_mb()
    return "" if peak is None else f"  peak rss {peak:.1f} MB"


def _check_manifest(manifest, ckpt):
    """Reject a manifest whose vocabulary or featurization is not the checkpoint's."""
    if manifest.vocabulary != ckpt.vocabulary:
        raise ContractError("manifest vocabulary does not match the checkpoint")
    if manifest.config.frontend != ckpt.config.dataset.frontend:
        raise ContractError(f"manifest dataset.frontend {manifest.config.frontend} "
                            f"is not the checkpoint's {ckpt.config.dataset.frontend}")


def cmd_train(args):
    for flag in ("config", "seed") if args.resume else ():
        if getattr(args, flag) is not None:
            raise ContractError(f"--{flag} cannot be given with --resume, which takes every "
                                f"setting but --epochs from the checkpoint")
    _check_output(args.output)
    path = Path(args.data) / "train.json"
    manifest = load_manifest(path)  # first, so a damaged or empty one costs no LM load
    if not manifest.records:
        raise ContractError(f"{path} holds no utterances to train on")
    lm = load_lm(args.lm)
    vocab = manifest.vocabulary
    check_vocabulary_alignment(lm, vocab)

    if args.resume:
        ckpt = load_checkpoint(args.resume)
        _check_manifest(manifest, ckpt)
        config = ckpt.config
        model = build_model(ckpt)
        optimizer = restore_optimizer(ckpt, model)
        start_epoch = ckpt.step
        kept = _log_before(Path(args.resume).with_suffix(".log.jsonl"), start_epoch)
    else:
        # the features come from the manifest, so its dataset settings are the run's
        config = dataclasses.replace(_load_config(args), dataset=manifest.config)
        model = fresh_model(config, vocab)
        optimizer = AdamState(model.values.size)
        start_epoch, kept = 0, []
    if args.epochs is not None:  # saved with the run, so a plain --resume continues to it
        config.training = dataclasses.replace(config.training, epochs=args.epochs)
    epochs = config.training.epochs
    if start_epoch >= epochs:
        raise ContractError(
            f"checkpoint already covers {start_epoch} epochs; raise --epochs to continue"
        )

    log.info("realizing %d utterances", len(manifest.records))
    utterances = list(iter_utterances(manifest))
    _return_freed_memory()
    split = len(utterances) - int(len(utterances) * config.training.holdout_fraction)
    train_slice, eval_slice = utterances[:split], utterances[split:] or utterances

    every = config.training.wer_every
    greedy = dataclasses.replace(config.fusion, beam_width=1)
    log_path = Path(args.output).with_suffix(".log.jsonl")
    best = min(((r.wer, r.loss) for r in kept), default=(math.inf, math.inf))
    if args.resume and Path(args.resume).resolve() != Path(args.output).resolve():
        with atomic_write(args.output) as fh:  # the resumed checkpoint is the best so far
            fh.write(Path(args.resume).read_bytes())
    with atomic_write(log_path) as fh:
        fh.write("".join(r.line() for r in kept).encode("utf-8"))
    started = epoch_started = time.monotonic()

    with open(log_path, "a", encoding="utf-8") as log_fh:
        for record in train_with_scheduled_lm_sampling(model, lm, vocab, train_slice, config,
                                                       optimizer, start_epoch):
            took = time.monotonic() - epoch_started  # the epoch's updates, before its measuring
            measure = record.epoch == epochs - 1 or (every > 0 and (record.epoch + 1) % every == 0)
            if measure:  # the corpus WER does not depend on the bootstrap, so one resample
                record.wer = evaluate_dataset(model, lm, eval_slice, greedy, vocab,
                                              seed=config.seed, resamples=1).corpus_wer
            # The record goes to disk before the checkpoint of step epoch + 1: a resume keeps
            # only records older than its checkpoint's step, so a kill between the two is safe.
            log_fh.write(record.line())
            log_fh.flush()
            if measure and (record.wer, record.loss) < best:
                best = (record.wer, record.loss)
                save_checkpoint(args.output, model, vocab, config, record.epoch + 1, optimizer)
            log.info("epoch %d  loss %.4f  sample_p %.3f%s  %.2f s  %.1f updates/s%s",
                     record.epoch, record.loss, record.lm_sample_p,
                     f"  wer {record.wer:.4f}" if measure else "", took,
                     len(train_slice) / max(took, 1e-9), _peak_rss_note())
            epoch_started = time.monotonic()

    elapsed = time.monotonic() - started
    print(f"trained epochs {start_epoch}..{epochs - 1} in {elapsed:.1f}s")
    print(f"final loss: {record.loss:.4f}")
    print(f"best decode wer: {best[0]:.4f} on {len(eval_slice)} utterances")
    print(f"wrote {args.output} and {log_path}")
    return 0


def _fusion(args, ckpt):
    """The checkpoint's fusion settings under the flags, and an LM knowing every decoder word."""
    flags = {"lambda_lm": args.lambda_lm, "beam_width": args.beam}
    cfg = dataclasses.replace(ckpt.config.fusion, **{k: v for k, v in flags.items() if v is not None})
    lm = load_lm(args.lm) if args.lm else None
    if cfg.lambda_lm > 0:
        if lm is None:
            raise ContractError("--lm is required unless --lambda-lm 0 disables fusion")
        check_vocabulary_alignment(lm, ckpt.vocabulary)
    return cfg, lm


def cmd_evaluate(args):
    _check_output(args.output)
    manifest = load_manifest(args.manifest)  # first, so a damaged one costs no model load
    if not manifest.records:
        raise ContractError(f"{args.manifest} holds no utterances to evaluate")
    ckpt = load_checkpoint(args.ckpt)
    _check_manifest(manifest, ckpt)
    model = build_model(ckpt)
    cfg, lm = _fusion(args, ckpt)
    started = time.monotonic()
    report = evaluate_dataset(model, lm, iter_utterances(manifest), cfg, ckpt.vocabulary,
                              seed=args.seed, resamples=args.resamples)
    took = time.monotonic() - started
    log.info("evaluated %d utterances  %.2f s  %.1f utterances/s%s", report.utterances, took,
             report.utterances / max(took, 1e-9), _peak_rss_note())
    print(format_report(report))
    if args.output:
        write_document(args.output, None, to_payload(report))
        print(f"wrote {args.output}")
    return 0


def cmd_transcribe(args):
    path = Path(args.input)
    if path.suffix.lower() != ".wav":
        raise ContractError(f"{path} is not a .wav file: transcribe decodes one wav, "
                            f"and evaluate --manifest decodes a manifest")
    _check_output(args.output)
    ckpt = load_checkpoint(args.ckpt)
    model = build_model(ckpt)
    cfg, lm = _fusion(args, ckpt)
    spec = stft_logmel(read_wav(path), ckpt.config.dataset.frontend)
    span = ckpt.config.encoder.state_span
    if len(spec) < span:
        raise ContractError(f"{path} gives {len(spec)} log-mel frames, fewer than the "
                            f"{span} that one encoder state spans")
    if (spec == spec[0]).all():
        raise ContractError(f"{path} has no variance across its log-mel frames "
                            f"(silence or a constant signal)")
    best = beam_search_decode(model, lm, spec, cfg, ckpt.vocabulary)
    line = f"{path.stem}\t{' '.join(ckpt.vocabulary.decode(best.tokens))}\t{best.fused:.6f}"
    print(line)
    if args.output:
        with atomic_write(args.output) as fh:
            fh.write((line + "\n").encode("utf-8"))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="icdscribe",
        description="Far-field speech to ICD-10 transcription pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="synthesize manifests for a code list")
    p.add_argument("--config", help="run config JSON; defaults apply when omitted")
    p.add_argument("--codes", help="tab-separated code list; bundled list when omitted")
    p.add_argument("--output", required=True, help="directory for manifests and config")
    p.add_argument("--holdout", help="speaker id for the test split; default last speaker")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train-lm", help="fit the interpolated n-gram model")
    p.add_argument("--corpus", required=True, help="text file, one sentence per line")
    p.add_argument("--order", type=int, default=3, help="largest n-gram length")
    p.add_argument("--output", required=True, help="path for the serialized model")
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("train", help="train the acoustic model")
    p.add_argument("--config", help="run config JSON; not allowed with --resume")
    p.add_argument("--data", required=True, help="directory holding train.json")
    p.add_argument("--lm", required=True, help="serialized language model")
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--seed", type=int, help="override the configured seed; not with --resume")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="decode and score every utterance of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", help="write the full report as JSON")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p.add_argument("--resamples", type=int, default=1000)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transcribe", help="decode one wav file")
    p.add_argument("input", help="wav file")
    p.add_argument("--output", help="also write the transcription to this file")
    p.set_defaults(func=cmd_transcribe)

    for p in (sub.choices["evaluate"], sub.choices["transcribe"]):  # the decoding commands
        p.add_argument("--ckpt", required=True)
        p.add_argument("--lm", help="required unless --lambda-lm 0")
        p.add_argument("--lambda-lm", type=float, dest="lambda_lm")
        p.add_argument("--beam", type=int, help="beam width override")

    return parser


def main(argv=None):
    _keep_freed_memory()
    level = os.environ.get("ICDSCRIBE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
