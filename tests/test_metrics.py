import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edit_distance_oracle, score_pairs
from icdscribe import metrics
from icdscribe.errors import ContractError
from icdscribe.metrics import (
    EvalReport,
    WerBreakdown,
    _percentile,
    format_report,
    wer,
)
from icdscribe.schema import from_payload, to_payload


class TestWer:
    def test_identical_sequences(self):
        b = wer("generalized abdominal pain".split(), "generalized abdominal pain".split())
        assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 0)
        assert b.wer == 0.0

    def test_single_deletion(self):
        b = wer("generalized abdominal pain".split(), "abdominal pain".split())
        assert (b.substitutions, b.deletions, b.insertions) == (0, 1, 0)
        assert b.wer == pytest.approx(1 / 3)

    def test_single_substitution(self):
        ref = "intracranial injury without loss of consciousness".split()
        hyp = "intracranial injury with loss of consciousness".split()
        b = wer(ref, hyp)
        assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)
        assert b.wer == pytest.approx(1 / 6)

    def test_empty_hypothesis_is_all_deletions(self):
        b = wer(["a", "b", "c"], [])
        assert (b.substitutions, b.deletions, b.insertions) == (0, 3, 0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ContractError):
            wer([], ["a"])

    def test_wer_can_exceed_one(self):
        b = wer(["a"], ["b", "c", "d"])
        assert b.wer > 1.0

    def test_tie_prefers_substitutions(self):
        b = wer(["a", "b"], ["b", "a"])
        assert (b.substitutions, b.deletions, b.insertions) == (2, 0, 0)

    def test_cost_beats_preference(self):
        b = wer(["a", "b", "c"], ["b", "c", "a"])
        assert b.errors == 2
        assert (b.substitutions, b.deletions, b.insertions) == (0, 1, 1)

    @given(
        ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
        hyp=st.lists(st.sampled_from("abc"), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_alignment_oracle(self, ref, hyp):
        assert wer(ref, hyp).errors == edit_distance_oracle(tuple(ref), tuple(hyp))

    @given(
        ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
        hyp=st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_edit_counts_symmetric(self, ref, hyp):
        assert wer(ref, hyp).errors == wer(hyp, ref).errors

    @given(
        ref=st.lists(st.sampled_from("ab"), min_size=1, max_size=6),
        hyp=st.lists(st.sampled_from("ab"), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matched_plus_lost_words_bounded_by_reference(self, ref, hyp):
        b = wer(ref, hyp)
        assert b.substitutions >= 0 and b.deletions >= 0 and b.insertions >= 0
        assert b.substitutions + b.deletions <= len(ref)

    def test_triangle_inequality_on_random_lists(self):
        rng = random.Random(4)
        for _ in range(60):
            a, b, c = (
                [rng.choice("abcd") for _ in range(rng.randint(1, 7))] for _ in range(3)
            )
            assert wer(a, c).errors <= wer(a, b).errors + wer(b, c).errors


def corpus_bleu(pairs, max_n=4):
    """The report's corpus BLEU, the package's one BLEU entry."""
    return score_pairs(pairs, seed=0, resamples=1, max_n=max_n).corpus_bleu


class TestBleu:
    def test_identity_scores_one(self):
        words = "generalized abdominal pain".split()
        assert corpus_bleu([(words, words)]) == pytest.approx(1.0)

    def test_no_overlap_scores_zero(self):
        assert corpus_bleu([(["a", "b", "c"], ["x", "y", "z"])]) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert corpus_bleu([(["a", "b"], [])]) == 0.0

    def test_smoothed_reference_example(self):
        ref = "the cat is on the mat".split()
        hyp = "the cat on the mat".split()
        # independent recomputation: raw precisions 5/5, 3/4, 1/3, 0/2,
        # add-one smoothing on each order, brevity penalty e^(1 - 6/5)
        smoothed = [(5 + 1) / (5 + 1), (3 + 1) / (4 + 1), (1 + 1) / (3 + 1), (0 + 1) / (2 + 1)]
        expected = math.exp(1 - 6 / 5) * math.prod(smoothed) ** 0.25
        got = corpus_bleu([(ref, hyp)])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.4947386, abs=1e-6)

    def test_clipping_limits_repeated_words(self):
        score = corpus_bleu([(["the", "cat", "is"], ["the", "the", "the"])], max_n=1)
        # one clipped unigram out of three, smoothed (1+1)/(3+1)
        assert score == pytest.approx(math.exp(1 - 3 / 3) * 0.5)

    def test_never_exceeds_one(self):
        rng = random.Random(11)
        for _ in range(100):
            ref = [rng.choice("abc") for _ in range(rng.randint(1, 6))]
            hyp = [rng.choice("abc") for _ in range(rng.randint(1, 6))]
            assert 0.0 <= corpus_bleu([(ref, hyp)]) <= 1.0

    def test_corpus_pools_counts_before_mean(self):
        pairs = [
            (["a", "b", "c"], ["a", "b", "c"]),
            (["d", "e", "f"], ["x", "y", "z"]),
        ]
        pooled = corpus_bleu(pairs, max_n=1)
        # pooled clipped unigrams 3 of 6, smoothed (3+1)/(6+1); not the
        # average of the per-sentence scores 1.0 and 0.0
        assert pooled == pytest.approx(4 / 7)
        per_sentence = [corpus_bleu([pair], max_n=1) for pair in pairs]
        assert pooled != pytest.approx(sum(per_sentence) / 2)


class TestReport:
    def test_perfect_hypotheses(self):
        pairs = [(["a", "b"], ["a", "b"]), (["c"], ["c"])]
        report = score_pairs(pairs, seed=1, resamples=50)
        assert report.corpus_wer == 0.0
        assert report.corpus_bleu == pytest.approx(1.0)
        assert report.wer_ci_95 == (0.0, 0.0)

    def test_corpus_wer_pools_errors(self):
        pairs = [
            (["a", "b", "c"], ["a", "b", "x"]),
            (["d", "e", "f", "g", "h", "i"], ["d", "e", "f", "g", "h", "i"]),
        ]
        report = score_pairs(pairs, seed=0, resamples=10)
        assert report.corpus_wer == pytest.approx(1 / 9)
        assert report.corpus_wer != pytest.approx((1 / 3 + 0) / 2)

    def test_same_seed_same_intervals(self):
        pairs = [
            (["a", "b", "c"], ["a", "x", "c"]),
            (["d", "e"], ["d", "e"]),
            (["f", "g", "h"], ["f", "h"]),
        ]
        one = score_pairs(pairs, seed=9, resamples=200)
        two = score_pairs(pairs, seed=9, resamples=200)
        assert one.wer_ci_95 == two.wer_ci_95
        assert one.bleu_ci_95 == two.bleu_ci_95

    def test_interval_brackets_point_estimate(self):
        rng = random.Random(3)
        pairs = []
        for _ in range(12):
            ref = [rng.choice("abcde") for _ in range(rng.randint(2, 6))]
            hyp = [w for w in ref if rng.random() > 0.2]
            pairs.append((ref, hyp or ["q"]))
        report = score_pairs(pairs, seed=2, resamples=400)
        assert report.wer_ci_95[0] <= report.corpus_wer <= report.wer_ci_95[1]
        assert report.bleu_ci_95[0] <= report.corpus_bleu <= report.bleu_ci_95[1]

    @pytest.mark.parametrize("n, seed", [(1, 0), (3, 1), (7, 7), (60, 123), (61, 0)])
    def test_matches_per_resample_loop(self, n, seed):
        """The vectorized bootstrap draws and pools exactly as one resample at a time."""
        rng = random.Random(n)
        pairs = [
            ([rng.choice("abcd") for _ in range(rng.randint(1, 7))],
             [rng.choice("abcd") for _ in range(rng.randint(0, 7))])
            for _ in range(n)
        ]
        report = score_pairs(pairs, seed=seed, resamples=100)
        scored = [wer(r, h) for r, h in pairs]
        stream = np.random.default_rng(seed)
        wers, bleus = [], []
        for _ in range(100):
            index = stream.integers(0, n, size=n)
            errors = sum(scored[i].errors for i in index)
            wers.append(errors / sum(scored[i].reference_length for i in index))
            bleus.append(corpus_bleu([pairs[i] for i in index]))
        assert report.corpus_bleu == corpus_bleu(pairs)
        for got, sample in ((report.wer_ci_95, wers), (report.bleu_ci_95, bleus)):
            assert got == (float(np.percentile(sample, 2.5)), float(np.percentile(sample, 97.5)))

    @pytest.mark.parametrize("n, resamples", [(13, 101), (60, 1000)])
    def test_any_block_of_resamples_gives_the_same_report_bytes(self, monkeypatch, n,
                                                                resamples):
        rng = random.Random(n)
        pairs = [([rng.choice("abcd") for _ in range(rng.randint(1, 7))],
                  [rng.choice("abcd") for _ in range(rng.randint(0, 7))]) for _ in range(n)]
        assert n * resamples <= metrics.BOOTSTRAP_BLOCK_DRAWS  # one block by default
        whole = json.dumps(to_payload(score_pairs(pairs, seed=5, resamples=resamples)))
        for rows in (1, 7):  # blocks of 7 resamples end in a shorter one
            monkeypatch.setattr(metrics, "BOOTSTRAP_BLOCK_DRAWS", rows * n)
            assert json.dumps(to_payload(score_pairs(pairs, seed=5, resamples=resamples))) == whole

    def test_the_bootstrap_of_785_pairs_holds_a_block_not_every_resample(self):
        rng = random.Random(785)
        pairs = [([rng.choice("abcd") for _ in range(rng.randint(1, 7))],
                  [rng.choice("abcd") for _ in range(rng.randint(0, 7))]) for _ in range(785)]
        tracemalloc.start()
        try:
            score_pairs(pairs, seed=0, resamples=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every resample at once held 19.2 MB: the draws, their offset copy and the counts,
        # 785,000 int64 each
        assert peak < 4 << 20

    @settings(max_examples=300, deadline=None)
    @given(
        draws=st.lists(st.one_of(st.integers(0, 6).map(lambda k: k / 3), st.floats(0.0, 1e6)),
                       min_size=1, max_size=40),
        p=st.one_of(st.sampled_from([0.0, 2.5, 50.0, 97.5, 100.0]), st.floats(0.0, 100.0)),
    )
    def test_percentile_equals_numpy_bit_for_bit(self, draws, p):
        got = _percentile(np.sort(draws), p)
        assert np.float64(got).tobytes() == np.float64(np.percentile(draws, p)).tobytes()

    def test_report_does_not_import_numpy_ma(self):
        # np.percentile imports numpy.ma on first use, a cost every evaluate would pay
        script = ("import sys\n"
                  "from icdscribe.metrics import build_report\n"
                  "build_report([('0', ['a', 'b'], ['a']), ('1', ['c'], ['c', 'd'])], seed=0,\n"
                  "             resamples=50, lambda_lm=0.0, beam_width=1)\n"
                  "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(metrics.__file__))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout.strip() == "False"

    def test_empty_test_set_rejected(self):
        with pytest.raises(ContractError):
            score_pairs([], seed=0, resamples=1)

    def test_report_renders_and_serializes(self):
        pairs = [(["a", "b"], ["a", "b"]), (["c", "d"], ["c", "x"])]
        report = score_pairs(pairs, seed=4, resamples=20)
        text = format_report(report)
        assert "WER" in text and "BLEU" in text and "95% CI" in text
        payload = to_payload(report)
        assert payload["utterances"] == 2
        assert len(payload["per_utterance"]) == 2

    def test_breakdown_arithmetic(self):
        b = WerBreakdown(substitutions=1, deletions=2, insertions=3, reference_length=10)
        assert b.errors == 6
        assert b.wer == pytest.approx(0.6)


class TestReportRules:
    """An EvalReport that disagrees with itself is refused, and `build_report`'s never is."""

    PAIRS = [(["a", "b", "c"], ["a", "x"]), (["d"], ["d"]), (["e", "f"], ["e", "f", "g"])]

    def payload(self):
        return to_payload(score_pairs(self.PAIRS, seed=3, resamples=40))

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            (lambda p: p.update(utterances=2), "utterances 2 is not 3"),
            (lambda p: p.update(substitutions=999), "substitutions 999 is not 1"),
            (lambda p: p.update(insertions=0), "insertions 0 is not 1"),
            (lambda p: p.update(reference_words=7), "reference_words 7 is not 6"),
            (lambda p: p.update(corpus_wer=0.25), "corpus_wer 0.25 is not 0.5"),
            (lambda p: p["per_utterance"][0].update(wer=-5.0), "per_utterance 0: wer -5.0"),
            (lambda p: p["per_utterance"][1].update(reference_length=2),
             "per_utterance 1: reference_length 2"),
            (lambda p: p["per_utterance"][1].update(reference="", reference_length=0),
             "per_utterance 1: reference_length 0"),
            (lambda p: p["per_utterance"][2].update(insertions=-1), "per_utterance 2: an error"),
            (lambda p: p.update(wer_ci_95=[0.9, 0.1]), "wer_ci_95 [0.9, 0.1] runs high to low"),
            (lambda p: p.update(bleu_ci_95=[0.9, 0.1]), "bleu_ci_95"),
            (lambda p: p.update(resamples=0), "resamples 0 outside [1, 10000]"),
            (lambda p: p.update(resamples=10_001), "resamples 10001 outside [1, 10000]"),
            (lambda p: p.update(seed=-1), "seed -1 outside [0, inf)"),
            (lambda p: p.update(beam_width=65), "beam_width 65 outside [1, 64]"),
            (lambda p: p.update(lambda_lm=-0.1), "lambda_lm -0.1 outside [0, inf)"),
        ],
    )
    def test_each_disagreement_is_refused(self, damage, fragment):
        payload = self.payload()
        damage(payload)
        with pytest.raises(ContractError, match=re.escape(fragment)):
            from_payload(EvalReport, payload)

    @given(pairs=st.lists(st.tuples(st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
                                    st.lists(st.sampled_from("abcd"), max_size=6)),
                          min_size=1, max_size=12),
           seed=st.integers(0, 2**32), resamples=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_built_reports_pass_exactly(self, pairs, seed, resamples):
        report = score_pairs(pairs, seed=seed, resamples=resamples)
        assert from_payload(EvalReport, to_payload(report)) == report
