import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdscribe.errors import ContractError
from icdscribe.lm import (
    Corpus,
    load_lm,
    next_logprobs,
    normalize_line,
    perplexity,
    prob,
    sample_next,
    save_lm,
    sentence_logprob,
    train_lm,
)

TOY = Corpus([["a", "b"], ["a", "c"]])


def scan_count(sentences, gram):
    """Occurrences of a gram by direct scan over start-padded sentences."""
    k = len(gram)
    hits = 0
    for sentence in sentences:
        padded = ["<sos>"] * (k - 1) + list(sentence)
        for i in range(len(sentence)):
            if tuple(padded[i : i + k]) == tuple(gram):
                hits += 1
    return hits


def oracle_prob(sentences, word, history, max_order):
    """Interpolated probability recomputed from scratch per query; each order weighs 1/max_order."""
    vocab = {w for s in sentences for w in s} | {"<unk>"}
    if word not in vocab:
        word = "<unk>"
    history = list(history)[-(max_order - 1):] if max_order > 1 else []
    total_words = sum(len(s) for s in sentences)
    floor = 1e-10

    estimates = []
    for k in range(1, max_order + 1):
        if k == 1:
            p1 = scan_count(sentences, (word,)) / total_words
            estimates.append((1.0 / max_order, (p1 + floor) / (1.0 + floor * len(vocab))))
            continue
        context = tuple(history[-(k - 1):])
        context = ("<sos>",) * (k - 1 - len(context)) + context
        ctx_total = sum(scan_count(sentences, context + (w,)) for w in vocab)
        if ctx_total == 0:
            continue
        estimates.append((1.0 / max_order, scan_count(sentences, context + (word,)) / ctx_total))

    weight = sum(lam for lam, _ in estimates)
    return sum(lam * p for lam, p in estimates) / weight


class TestNormalizer:
    def test_strips_punctuation_and_lowercases(self):
        line = "Pain, unspecified; best-known"
        assert normalize_line(line) == ["pain", "unspecified", "best", "known"]

    def test_handles_typographic_dashes(self):
        assert normalize_line("left–right — middle") == ["left", "right", "middle"]

    def test_corpus_statistics(self):
        corpus = Corpus.from_lines(["A b", "", "b c c"])
        assert len(corpus.sentences) == 2
        assert corpus.unique_words == 3


class TestTraining:
    def test_hand_counts_on_toy_corpus(self):
        lm = train_lm(TOY, max_order=2)
        assert lm.grams[0][("a",)] == 2
        assert lm.grams[0][("b",)] == 1
        assert lm.grams[1][("a", "b")] == 1
        assert lm.grams[1][("a", "c")] == 1
        assert lm.totals[1][("a",)] == 2

    def test_default_weights_are_uniform(self):
        lm = train_lm(TOY, max_order=10)
        # after "a" every order gives b 0.5, but the unigram gives it 0.25
        assert prob(lm, "b", ["a"]) == pytest.approx((0.25 + 9 * 0.5) / 10, abs=1e-8)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            train_lm(Corpus([]), max_order=2)

    def test_bad_order_rejected(self):
        with pytest.raises(ContractError):
            train_lm(TOY, max_order=0)

    def test_order_bounded_at_sixteen(self):
        assert train_lm(TOY, max_order=16).max_order == 16
        with pytest.raises(ContractError, match=r"max order must lie in 1\.\.16, got 17"):
            train_lm(TOY, max_order=17)

    def test_gram_counts_never_exceed_context_totals(self):
        corpus = Corpus([["a", "b", "a"], ["b", "b", "c", "a"]])
        lm = train_lm(corpus, max_order=3)
        for k in range(1, 4):
            for gram, count in lm.grams[k - 1].items():
                assert count <= lm.totals[k - 1][gram[:-1]]

    def test_gram_counts_never_exceed_suffix_counts(self):
        corpus = Corpus([["a", "b", "a"], ["b", "b", "c", "a"]])
        lm = train_lm(corpus, max_order=3)
        for k in range(2, 4):
            for gram, count in lm.grams[k - 1].items():
                suffix = gram[1:]
                if "<sos>" in suffix[:-1]:
                    continue
                assert count <= lm.grams[k - 2][suffix]


class TestProb:
    def test_toy_interpolated_value(self):
        lm = train_lm(TOY, max_order=2)
        assert prob(lm, "b", ["a"]) == pytest.approx(0.375, abs=1e-8)

    def test_unigram_model_is_relative_frequency(self):
        lm = train_lm(TOY, max_order=1)
        assert prob(lm, "a", []) == pytest.approx(0.5, abs=1e-8)
        assert prob(lm, "b", []) == pytest.approx(0.25, abs=1e-8)

    def test_history_truncated_to_markov_window(self):
        lm = train_lm(TOY, max_order=2)
        long_history = ["c", "b", "c", "b", "a"]
        assert prob(lm, "b", long_history) == prob(lm, "b", ["a"])

    def test_normalizes_over_vocabulary(self):
        corpus = Corpus([["a", "b", "a"], ["b", "c", "a"], ["c", "a", "b"]])
        lm = train_lm(corpus, max_order=3)
        for history in ([], ["a"], ["b", "c"], ["c", "a"]):
            mass = sum(prob(lm, w, history) for w in lm.vocabulary)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_falls_back_to_unigram(self):
        lm = train_lm(TOY, max_order=2)  # the bigram context ("c",) never occurs
        assert prob(lm, "a", ["c"]) == pytest.approx(0.5, abs=1e-8)
        assert prob(lm, "a", ["c"]) == prob(train_lm(TOY, max_order=1), "a", [])

    def test_unknown_word_gets_floor_probability(self):
        lm = train_lm(TOY, max_order=2)
        p = prob(lm, "zebra", ["a"])
        assert 0 < p < 1e-9

    def test_more_occurrences_of_word_raise_its_unigram(self):
        base = [["a", "b"], ["c", "a"]]
        lm0 = train_lm(Corpus(base), max_order=1)
        lm1 = train_lm(Corpus(base + [["b", "b", "b"]]), max_order=1)
        assert prob(lm1, "b", []) > prob(lm0, "b", [])

    def test_first_occurrence_lifts_word_off_the_floor(self):
        lm0 = train_lm(Corpus([["a", "b"]]), max_order=1)
        lm1 = train_lm(Corpus([["a", "b"], ["d", "a"]]), max_order=1)
        assert prob(lm1, "d", []) > prob(lm0, "d", [])


WORD_ST = st.sampled_from(["a", "b", "c"])
SENTENCES_ST = st.lists(
    st.lists(WORD_ST, min_size=1, max_size=6), min_size=1, max_size=8
).filter(lambda ss: sum(map(len, ss)) <= 50)


class TestOracleEquivalence:
    @given(
        sentences=SENTENCES_ST,
        word=st.sampled_from(["a", "b", "c", "z"]),
        history=st.lists(WORD_ST, max_size=4),
        max_order=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_count_oracle(self, sentences, word, history, max_order):
        lm = train_lm(Corpus(sentences), max_order=max_order)
        expected = oracle_prob(sentences, word, history, max_order)
        assert prob(lm, word, history) == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestNextLogprobs:
    @given(
        sentences=SENTENCES_ST,
        words=st.lists(st.sampled_from(["a", "b", "c", "z", "<unk>"]), min_size=1, max_size=6),
        history=st.lists(st.sampled_from(["a", "b", "c", "y"]), max_size=4),
        max_order=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_log_prob_bit_for_bit(self, sentences, words, history, max_order):
        lm = train_lm(Corpus(sentences), max_order=max_order)
        for _ in range(2):  # computed, then served from the memo
            vector = next_logprobs(lm, words, history)
            assert vector.dtype == np.float64 and not vector.flags.writeable
            assert vector.tolist() == [math.log(prob(lm, w, history)) for w in words]

    def test_memo_is_keyed_by_the_markov_window(self):
        lm = train_lm(TOY, max_order=2)
        first = next_logprobs(lm, ["a", "b"], ["c", "a"])
        assert next_logprobs(lm, ["a", "b"], ["b", "b", "a"]) is first
        assert next_logprobs(lm, ["a", "b"], ["b"]) is not first

    def test_two_word_lists_never_share_a_vector(self):
        lm = train_lm(TOY, max_order=3)
        for history in ([], ["a"], ["q", "a"]):
            one = next_logprobs(lm, ["a", "b", "c"], history)
            other = next_logprobs(lm, ["c", "zebra"], history)
            assert other.tolist() == [math.log(prob(lm, w, history)) for w in ["c", "zebra"]]
            assert next_logprobs(lm, ["a", "b", "c"], history) is one
            assert one.tolist() == [math.log(prob(lm, w, history)) for w in ["a", "b", "c"]]

    def test_memo_is_not_saved(self, tmp_path):
        lm = train_lm(TOY, max_order=2)
        path = tmp_path / "lm.json"
        save_lm(lm, path)
        next_logprobs(lm, ["a", "b"], ["a"])
        save_lm(lm, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        assert load_lm(path) == lm


class TestSentenceLogprob:
    def test_single_word_unigram(self):
        lm = train_lm(TOY, max_order=1)
        assert sentence_logprob(lm, ["b"]) == pytest.approx(math.log(0.25), abs=1e-8)

    def test_in_corpus_sentence_beats_permutation(self):
        lm = train_lm(TOY, max_order=2)
        assert sentence_logprob(lm, ["a", "b"]) > sentence_logprob(lm, ["b", "a"])

    def test_appending_never_increases_logprob(self):
        lm = train_lm(TOY, max_order=2)
        base = sentence_logprob(lm, ["a"])
        for w in ("a", "b", "c"):
            assert sentence_logprob(lm, ["a", w]) <= base

    def test_empty_sentence_rejected(self):
        lm = train_lm(TOY, max_order=2)
        with pytest.raises(ContractError):
            sentence_logprob(lm, [])


def running_sum_draw(lm, history, rng):
    """One draw by a running sum of prob over the sorted vocabulary, word by word."""
    words = sorted(lm.vocabulary)
    probs = [prob(lm, w, history) for w in words]
    threshold = rng.random() * sum(probs)
    cumulative = 0.0
    for w, p in zip(words, probs):
        cumulative += p
        if threshold < cumulative:
            return w
    return words[-1]


class TestSampling:
    def test_point_mass_corpus(self):
        lm = train_lm(Corpus([["a", "a", "a"]]), max_order=2)
        rng = np.random.default_rng(0)
        draws = {sample_next(lm, [], rng) for _ in range(200)}
        assert draws == {"a"}

    def test_empirical_frequencies_match_model(self):
        corpus = Corpus([["a", "b"], ["a", "c"], ["a", "b"], ["b", "a"]])
        lm = train_lm(corpus, max_order=2)
        rng = np.random.default_rng(42)
        history = ["a"]
        draws = [sample_next(lm, history, rng) for _ in range(10000)]
        for w in ("a", "b", "c"):
            empirical = draws.count(w) / len(draws)
            assert abs(empirical - prob(lm, w, history)) <= 0.02

    def test_same_seed_same_sequence(self):
        lm = train_lm(TOY, max_order=2)
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        seq_a = [sample_next(lm, ["a"], rng1) for _ in range(50)]
        seq_b = [sample_next(lm, ["a"], rng2) for _ in range(50)]
        assert seq_a == seq_b

    @given(
        sentences=SENTENCES_ST,
        history=st.lists(st.sampled_from(["a", "b", "c", "y"]), max_size=4),
        max_order=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_draws_equal_a_running_sum_over_prob(self, sentences, history, max_order, seed):
        lm = train_lm(Corpus(sentences), max_order=max_order)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sample_next(lm, history, rng) == running_sum_draw(lm, history, reference)


class TestSerialization:
    def test_round_trip_preserves_queries(self, tmp_path):
        corpus = Corpus([["a", "b", "a"], ["b", "c", "a"]])
        lm = train_lm(corpus, max_order=3)
        path = tmp_path / "model.lm"
        save_lm(lm, path)
        back = load_lm(path)
        assert back.max_order == lm.max_order
        assert back.vocabulary == lm.vocabulary
        assert back.grams == lm.grams
        assert back.totals == lm.totals
        for w in ("a", "b", "c", "zebra"):
            for h in ([], ["a"], ["a", "b"]):
                assert prob(back, w, h) == prob(lm, w, h)

    def test_serialized_form_is_stable(self, tmp_path):
        lm = train_lm(TOY, max_order=2)
        p1, p2 = tmp_path / "one.lm", tmp_path / "two.lm"
        save_lm(lm, p1)
        save_lm(lm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(
        sentences=SENTENCES_ST,
        max_order=st.integers(min_value=1, max_value=4),
        histories=st.lists(st.lists(st.sampled_from(["a", "b", "c", "y"]), max_size=4),
                           min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_lm_v2_round_trip(self, sentences, max_order, histories):
        lm = train_lm(Corpus(sentences), max_order=max_order)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.lm"
            save_lm(lm, path)
            back = load_lm(path)
        assert back.grams == lm.grams and back.max_order == max_order
        assert back.vocabulary == {w for s in sentences for w in s} | {"<unk>"}
        for history in histories:
            for w in ("a", "b", "c", "<unk>", "zebra"):
                assert prob(back, w, history) == prob(lm, w, history)

    def test_gram_predicting_a_word_order_one_never_counts_is_rejected(self, tmp_path):
        # loaded, its next-word vector after "a" would sum to 0.5
        path = tmp_path / "improper.lm"
        path.write_text(json.dumps({"format": "lm-v3", "counts": [
            [[["a"], 1], [["b"], 1]],
            [[["<sos>", "a"], 1], [["a", "zzz"], 1]],
        ]}))
        with pytest.raises(ContractError, match=r"improper\.lm: order 2 predicts 'zzz'"):
            load_lm(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text('{"format": "lm-v9", "max_order": 1}')
        with pytest.raises(ContractError):
            load_lm(path)


class TestPerplexity:
    def test_degenerate_corpus_has_unit_perplexity(self):
        sentences = [["a", "a", "a"]]
        lm = train_lm(Corpus(sentences), max_order=2)
        assert perplexity(lm, sentences) == pytest.approx(1.0, abs=1e-6)

    def test_held_in_text_scores_better_than_shuffled(self):
        sentences = [["a", "b", "c"], ["a", "b", "d"]]
        lm = train_lm(Corpus(sentences), max_order=2)
        assert perplexity(lm, sentences) < perplexity(lm, [["c", "b", "a"], ["d", "b", "a"]])
