"""Word error rate, BLEU and report aggregation.

WER comes from a unit-cost dynamic-programming alignment; when several
minimal alignments exist the backtrace prefers substitution over
insertion over deletion, so breakdowns are deterministic.  BLEU is
corpus-style: clipped n-gram counts are pooled over all sentence pairs
before the geometric mean, with add-one smoothing on each order (single
short sentences rarely contain 4-grams) and a hard zero when not one
unigram overlaps.  Confidence intervals are percentile bootstrap over
utterances.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .schema import to_payload


@dataclass
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def errors(self):
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self):
        return self.errors / self.reference_length

    @property
    def accuracy(self):
        return 1.0 - self.wer


def wer(reference, hypothesis):
    """Minimal-edit word alignment between a reference and a hypothesis."""
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise ContractError("reference must contain at least one word")

    # cell = (cost, substitutions, deletions, insertions)
    row = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        prev, row = row, [(i, 0, i, 0)] + [None] * len(hyp)
        for j in range(1, len(hyp) + 1):
            miss = ref[i - 1] != hyp[j - 1]
            diag = prev[j - 1]
            ins = row[j - 1]
            dele = prev[j]
            candidates = (
                (diag[0] + miss, diag[1] + miss, diag[2], diag[3]),
                (ins[0] + 1, ins[1], ins[2], ins[3] + 1),
                (dele[0] + 1, dele[1], dele[2] + 1, dele[3]),
            )
            best = candidates[0]
            for cand in candidates[1:]:
                if cand[0] < best[0]:
                    best = cand
            row[j] = best
    _, s, d, i = row[len(hyp)]
    return WerBreakdown(s, d, i, len(ref))


def _ngrams(words, n):
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def _closest_ref_length(references, hyp_len):
    # nearest reference length; ties go to the shorter reference
    return min((abs(len(r) - hyp_len), len(r)) for r in references)[1]


def _pair_stats(references, hypothesis, max_n):
    """Clipped and total n-gram counts per order 1..max_n, then (ref_len, hyp_len)."""
    row = []
    for n in range(1, max_n + 1):
        hyp_grams = _ngrams(hypothesis, n)
        clipped = 0
        for gram, count in hyp_grams.items():
            limit = max((_ngrams(r, n)[gram] for r in references), default=0)
            clipped += min(count, limit)
        row += [clipped, sum(hyp_grams.values())]
    return row + [_closest_ref_length(references, len(hypothesis)), len(hypothesis)]


def _bleu_from_stats(row, max_n):
    *orders, ref_len, hyp_len = row
    if hyp_len == 0 or orders[0] == 0:
        return 0.0
    log_precision = 0.0
    for clipped, total in zip(orders[0::2], orders[1::2]):
        log_precision += math.log((clipped + 1.0) / (total + 1.0))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision / max_n)


def _pooled_bleu(weights, stats, max_n):
    """BLEU per row of `weights`, pooling each pair's counts as many times as the row says."""
    return [_bleu_from_stats(row, max_n) for row in (weights @ stats).tolist()]


def bleu(references, hypothesis, max_n=4):
    """Smoothed BLEU for one hypothesis against one or more references."""
    if not references:
        raise ContractError("need at least one reference")
    stats = _pair_stats([list(r) for r in references], list(hypothesis), max_n)
    return _bleu_from_stats(stats, max_n)


def corpus_bleu(pairs, max_n=4):
    """BLEU over (reference, hypothesis) pairs, counts pooled before the mean."""
    if not pairs:
        raise ContractError("need at least one sentence pair")
    stats = np.array([_pair_stats([list(r)], list(h), max_n) for r, h in pairs])
    return _pooled_bleu(np.ones((1, len(pairs)), dtype=np.int64), stats, max_n)[0]


@dataclass
class EvalReport:
    breakdowns: list
    corpus_wer: float
    corpus_bleu: float
    wer_ci: tuple
    bleu_ci: tuple
    resamples: int
    seed: int

    def to_dict(self):
        return {
            "utterances": len(self.breakdowns),
            "substitutions": sum(b.substitutions for b in self.breakdowns),
            "deletions": sum(b.deletions for b in self.breakdowns),
            "insertions": sum(b.insertions for b in self.breakdowns),
            "reference_words": sum(b.reference_length for b in self.breakdowns),
            "corpus_wer": self.corpus_wer,
            "corpus_bleu": self.corpus_bleu,
            "wer_ci_95": list(self.wer_ci),
            "bleu_ci_95": list(self.bleu_ci),
            "resamples": self.resamples,
            "seed": self.seed,
            "per_utterance": [{**to_payload(b), "wer": b.wer} for b in self.breakdowns],
        }


def build_report(pairs, seed=0, resamples=1000, max_n=4):
    """Score (reference, hypothesis) pairs and bootstrap 95% intervals.

    Corpus WER is total errors over total reference words, not the mean
    of per-utterance rates.  Each resample is a row of pair multiplicities,
    so pooled counts are one integer matrix product.
    """
    if not pairs:
        raise ContractError("cannot evaluate an empty test set")
    pairs = [(list(r), list(h)) for r, h in pairs]
    breakdowns = [wer(r, h) for r, h in pairs]
    errors = [b.errors for b in breakdowns]
    lengths = [b.reference_length for b in breakdowns]
    stats = np.array([_pair_stats([r], h, max_n) for r, h in pairs])

    n = len(pairs)
    draws = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
    offsets = n * np.arange(resamples)[:, None]
    weights = np.bincount((draws + offsets).ravel(), minlength=resamples * n).reshape(resamples, n)
    wer_draws = (weights @ errors) / (weights @ lengths)
    bleu_draws = _pooled_bleu(weights, stats, max_n)

    return EvalReport(
        breakdowns=breakdowns,
        corpus_wer=sum(errors) / sum(lengths),
        corpus_bleu=_pooled_bleu(np.ones((1, n), dtype=np.int64), stats, max_n)[0],
        wer_ci=(float(np.percentile(wer_draws, 2.5)), float(np.percentile(wer_draws, 97.5))),
        bleu_ci=(float(np.percentile(bleu_draws, 2.5)), float(np.percentile(bleu_draws, 97.5))),
        resamples=resamples,
        seed=seed,
    )


def evaluate_dataset(model, lm, manifest, cfg, seed=0, resamples=1000):
    """Transcribe every utterance in a manifest and score the results."""
    if resamples < 1:
        raise ContractError(f"the bootstrap needs at least 1 resample, got {resamples}")
    from .data import iter_utterances
    from .fusion import transcribe

    vocab = manifest.vocabulary
    pairs = []
    for utt in iter_utterances(manifest):
        reference = vocab.decode(utt.target)
        hypothesis = transcribe(model, lm, utt.spectrogram, cfg, vocab)
        pairs.append((reference, hypothesis))
    return build_report(pairs, seed=seed, resamples=resamples)


def format_report(report):
    """Plain-text table with the corpus scores and their intervals."""
    totals = report.to_dict()
    lines = [
        f"{'metric':<8} {'value':>8}   95% CI",
        f"{'WER':<8} {report.corpus_wer:>8.4f}   [{report.wer_ci[0]:.4f}, {report.wer_ci[1]:.4f}]",
        f"{'BLEU':<8} {report.corpus_bleu:>8.4f}   [{report.bleu_ci[0]:.4f}, {report.bleu_ci[1]:.4f}]",
        f"utterances: {len(report.breakdowns)}",
        "errors: S={substitutions} D={deletions} I={insertions} over {reference_words} "
        "reference words".format(**totals),
        f"bootstrap: {report.resamples} resamples, seed {report.seed}",
    ]
    return "\n".join(lines)
