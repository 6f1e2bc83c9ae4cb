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
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .schema import check_bounds, to_payload, within

# draws per bootstrap block: `build_report` draws, counts and scores this many pair indices
# (rounded down to whole resamples, at least one) at a time, so 60 pairs x 1,000 resamples
# take one block and 785 x 1,000 take 13
BOOTSTRAP_BLOCK_DRAWS = 1 << 16


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


def _pair_stats(reference, hypothesis, max_n):
    """Clipped and total n-gram counts per order 1..max_n, then (ref_len, hyp_len)."""
    row = []
    for n in range(1, max_n + 1):
        hyp_grams = _ngrams(hypothesis, n)
        ref_grams = _ngrams(reference, n)
        clipped = sum(min(count, ref_grams[gram]) for gram, count in hyp_grams.items())
        row += [clipped, sum(hyp_grams.values())]
    return row + [len(reference), len(hypothesis)]


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


@dataclass
class UtteranceScore:  # one `per_utterance` entry; the transcripts are space-joined words
    id: str
    reference: str
    hypothesis: str
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int
    wer: float


@dataclass
class EvalReport:
    """The `evaluate` report, written by `schema.to_payload`; one that disagrees with itself is
    refused: its totals and quotients must follow from its entries, as `build_report` makes them."""

    utterances: int = field(metadata=within(1))
    substitutions: int
    deletions: int
    insertions: int
    reference_words: int
    corpus_wer: float
    corpus_bleu: float
    wer_ci_95: tuple[float, float]
    bleu_ci_95: tuple[float, float]
    resamples: int = field(metadata=within(1, 10_000))  # the bootstrap draws resamples x pairs
    seed: int = field(metadata=within(0))
    lambda_lm: float = field(metadata=within(0))  # the fusion settings decoded with
    beam_width: int = field(metadata=within(1, 64))
    per_utterance: list[UtteranceScore]

    def __post_init__(self):
        check_bounds(self)
        entries = self.per_utterance
        for e in entries:
            score = WerBreakdown(e.substitutions, e.deletions, e.insertions, e.reference_length)
            if not 1 <= score.reference_length == len(e.reference.split()):
                raise ContractError(f"per_utterance {e.id}: reference_length {e.reference_length} "
                                    f"is not its reference's word count, at least 1")
            if min(score.substitutions, score.deletions, score.insertions) < 0:
                raise ContractError(f"per_utterance {e.id}: an error count is below 0")
            if e.wer != score.wer:
                raise ContractError(f"per_utterance {e.id}: wer {e.wer} is not its errors over "
                                    f"its reference length, {score.wer}")
        total = WerBreakdown(*(sum(getattr(e, key) for e in entries) for key in
                               ("substitutions", "deletions", "insertions", "reference_length")))
        for name, derived in (("utterances", len(entries)), ("substitutions", total.substitutions),
                              ("deletions", total.deletions), ("insertions", total.insertions),
                              ("reference_words", total.reference_length),
                              ("corpus_wer", total.wer)):
            if getattr(self, name) != derived:
                raise ContractError(f"{name} {getattr(self, name)} is not {derived}, "
                                    f"which per_utterance gives")
        for name in ("wer_ci_95", "bleu_ci_95"):
            low, high = getattr(self, name)
            if low > high:
                raise ContractError(f"{name} [{low}, {high}] runs high to low")


def _percentile(ordered, p):
    """np.percentile(draws, p), `linear` method, of the sorted draws; numpy's imports numpy.ma."""
    index = (len(ordered) - 1) * (p / 100)
    # as in numpy, an index at the last draw becomes -1 for both neighbours
    low, high = (math.floor(index), math.floor(index) + 1) if index < len(ordered) - 1 else (-1, -1)
    a, b, t = ordered[low], ordered[high], index - low
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def build_report(scored, seed, resamples, lambda_lm, beam_width, max_n=4):
    """Score (id, reference words, hypothesis words) triples and bootstrap 95% intervals.

    Corpus WER is total errors over total reference words, not the mean of
    per-utterance rates.  Each resample is a row of pair multiplicities, so
    pooled counts are one integer matrix product per block of resamples; the
    blocks draw in turn from one generator, so they draw what one call would.
    The fusion settings are kept as given.
    """
    if not scored:
        raise ContractError("cannot evaluate an empty test set")
    pairs = [(list(r), list(h)) for _, r, h in scored]
    breakdowns = [wer(r, h) for r, h in pairs]
    errors = [b.errors for b in breakdowns]
    lengths = [b.reference_length for b in breakdowns]
    stats = np.array([_pair_stats(r, h, max_n) for r, h in pairs])

    n = len(pairs)
    rng = np.random.default_rng(seed)
    rows = max(1, BOOTSTRAP_BLOCK_DRAWS // n)
    wer_draws, bleu_draws = np.empty(resamples), np.empty(resamples)
    for start in range(0, resamples, rows):
        block = min(rows, resamples - start)
        draws = rng.integers(0, n, size=(block, n))
        draws += n * np.arange(block)[:, None]  # row r counts into bins [r * n, (r + 1) * n)
        weights = np.bincount(draws.ravel(), minlength=block * n).reshape(block, n)
        wer_draws[start : start + block] = (weights @ errors) / (weights @ lengths)
        bleu_draws[start : start + block] = _pooled_bleu(weights, stats, max_n)
    wer_draws.sort()
    bleu_draws.sort()

    return EvalReport(
        utterances=n,
        substitutions=sum(b.substitutions for b in breakdowns),
        deletions=sum(b.deletions for b in breakdowns),
        insertions=sum(b.insertions for b in breakdowns),
        reference_words=sum(lengths),
        corpus_wer=sum(errors) / sum(lengths),
        corpus_bleu=_pooled_bleu(np.ones((1, n), dtype=np.int64), stats, max_n)[0],
        wer_ci_95=(_percentile(wer_draws, 2.5), _percentile(wer_draws, 97.5)),
        bleu_ci_95=(_percentile(bleu_draws, 2.5), _percentile(bleu_draws, 97.5)),
        resamples=resamples,
        seed=seed,
        lambda_lm=lambda_lm,
        beam_width=beam_width,
        per_utterance=[UtteranceScore(i, " ".join(r), " ".join(h), **to_payload(b), wer=b.wer)
                       for (i, _, _), (r, h), b in zip(scored, pairs, breakdowns)],
    )


def format_report(report):
    """Plain-text table with the corpus scores and their intervals, and the decode settings."""
    wer_ci, bleu_ci = report.wer_ci_95, report.bleu_ci_95
    lines = [
        f"{'metric':<8} {'value':>8}   95% CI",
        f"{'WER':<8} {report.corpus_wer:>8.4f}   [{wer_ci[0]:.4f}, {wer_ci[1]:.4f}]",
        f"{'BLEU':<8} {report.corpus_bleu:>8.4f}   [{bleu_ci[0]:.4f}, {bleu_ci[1]:.4f}]",
        f"utterances: {report.utterances}",
        f"errors: S={report.substitutions} D={report.deletions} I={report.insertions} "
        f"over {report.reference_words} reference words",
        f"decoding: beam width {report.beam_width}, lambda_lm {report.lambda_lm:g}",
        f"bootstrap: {report.resamples} resamples, seed {report.seed}",
    ]
    return "\n".join(lines)
