"""Acceptance suite: the headline guarantees of the whole package.

Every block here states a user-facing promise, from gradient fidelity
through decoding optimality up to full-pipeline reproducibility, and
checks it end to end at sizes that run on a single desktop core.  The
component tests cover the same ground in finer grain; this file is the
contract.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import icdscribe
from icdscribe import autodiff as ad
from icdscribe.audio import SpeakerProfile
from icdscribe.autodiff import AdamState, OptimizerConfig
from icdscribe.checkpoint import fresh_model
from icdscribe.cli import main
from icdscribe.config import RunConfig, TrainingConfig
from icdscribe.data import (
    EOS,
    SOS,
    DatasetConfig,
    IcdCode,
    build_vocabulary,
    bundled_icd_path,
    generate_dataset,
    iter_utterances,
    load_icd_list,
    split_by_speaker,
)
from icdscribe.fusion import (
    FusionConfig,
    beam_search_decode,
    fused_score,
    greedy_decode,
    train_with_scheduled_lm_sampling,
)
from icdscribe.lm import Corpus, prob, train_lm
from icdscribe.metrics import wer
from icdscribe.model import ConvSpec, DecoderConfig, EncoderConfig, Seq2SeqModel

import helpers as ops
from helpers import (
    assert_grad_close,
    edit_distance_oracle,
    finite_difference_grad,
    loss_value,
    score_pairs,
    update_gradients,
    weighted_sum,
)


def pooled_wer(model, lm, utterances, cfg, vocab):
    errors = words = 0
    for utt in utterances:
        hyp = greedy_decode(model, lm, utt.spectrogram, cfg, vocab)
        breakdown = wer(vocab.decode(utt.target), vocab.decode(hyp.tokens))
        errors += breakdown.errors
        words += breakdown.reference_length
    return errors / words


class TestGradientFidelity:
    """Analytic gradients agree with central finite differences."""

    def test_every_operation(self):
        rng = np.random.default_rng(5)
        y = ops.Tensor(rng.normal(size=(3, 2)))
        z = ops.Tensor(rng.normal(size=(4, 3)))
        w = ops.Tensor(rng.normal(size=(2, 3, 2)))
        b = ops.Tensor(rng.normal(size=(2,)))
        state = ops.Tensor(rng.normal(size=(1, 2)))
        wx = ops.Tensor(rng.normal(size=(3, 8)))
        wh = ops.Tensor(rng.normal(size=(2, 8)))
        gate_b = ops.Tensor(rng.normal(size=(8,)))
        cases = [
            ("matmul", lambda t: ops.matmul(t, y)),
            ("add", lambda t: ops.add(t, z)),
            ("tanh", ops.tanh),
            ("relu", ops.relu),
            ("concat", lambda t: ops.concat([t, z], axis=1)),
            ("narrow", lambda t: ops.narrow(t, 1, 1, 2)),
            ("reshape", lambda t: ops.reshape(t, (2, 6))),
            ("softmax", ops.softmax),
            ("conv1d", lambda t: ops.conv1d(t, w, b, stride=2)),
            ("lstm", lambda t: ops.lstm(t, state, state, wx, wh, gate_b)),
        ]
        for name, op in cases:
            base = rng.normal(size=(4, 3))
            base[np.abs(base) < 0.05] += 0.1  # keep kinks away from the probe step
            leaf = ops.Tensor(base, requires_grad=True)

            def make_loss(op=op, leaf=leaf):
                return weighted_sum(op(leaf), seed=5)  # seeded weights break softmax's symmetry

            loss = make_loss()
            ops.backward(loss)
            numeric = finite_difference_grad(lambda: make_loss().item(), leaf.values)
            assert_grad_close(leaf.grad, numeric, rtol=1e-4)

    def test_cross_entropy_gradient(self):
        logits = np.random.default_rng(9).normal(size=(3, 5))
        targets = [1, 4, 2]
        adjoints = []
        ad.backward(logits, targets, adjoints.append)
        numeric = finite_difference_grad(
            lambda: ad.backward(logits, targets, lambda d_logits: None), logits
        )
        assert_grad_close(adjoints[0], numeric, rtol=1e-4)

    def test_full_model_within_thirty_seconds(self):
        started = time.monotonic()
        enc = EncoderConfig(
            conv=(ConvSpec(channels=2, stride=2, dilation=1, kernel=2),), layers=1, beta=2, hidden=4
        )
        dec = DecoderConfig(embedding_dim=3, hidden=4, attention_dim=2)
        model = Seq2SeqModel(enc, dec, 5, input_dim=3, seed=7)
        x = np.random.default_rng(13).normal(size=(8, 3))
        target = [SOS, 4, 3, EOS]

        update_gradients(model, x, target)
        for name, p in model.named_parameters().items():
            numeric = finite_difference_grad(lambda: loss_value(model, x, target), p.values)
            assert_grad_close(p.grad, numeric, rtol=1e-3)
        assert time.monotonic() - started < 30.0


class TestPyramidReduction:
    """Encoder output length follows the ceil-division chain, 200 cases."""

    def test_randomized_shapes(self):
        started = time.monotonic()
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = int(rng.integers(3, 60))
            beta = int(rng.integers(2, 4))
            layers = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            enc = EncoderConfig(
                conv=(ConvSpec(channels=2, stride=stride, dilation=1, kernel=2),),
                layers=layers, beta=beta, hidden=3,
            )
            dec = DecoderConfig(embedding_dim=2, hidden=3, attention_dim=2)
            model = Seq2SeqModel(enc, dec, 5, input_dim=2, seed=0)
            expected = math.ceil(t / stride)
            for _level in range(layers):
                expected = math.ceil(expected / beta)
            out = model.encode(rng.normal(size=(t, 2)))
            assert out.reduced_steps == expected, (t, beta, layers, stride)
        assert time.monotonic() - started < 10.0


class TestAttentionWeights:
    """Alignment weights form a distribution; softmax ignores shifts."""

    def make_model(self, seed):
        enc = EncoderConfig(
            conv=(ConvSpec(channels=3, stride=2, dilation=1, kernel=2),), layers=1, beta=2, hidden=5
        )
        dec = DecoderConfig(embedding_dim=3, hidden=5, attention_dim=4)
        return Seq2SeqModel(enc, dec, 6, input_dim=4, seed=seed)

    def test_weights_are_a_distribution(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            model = self.make_model(seed)
            encoded = model.encode(rng.normal(size=(int(rng.integers(8, 40)), 4)))
            state = model.start_state()
            alpha, _ = model.attend(state[0], encoded)
            assert np.all(alpha >= 0.0)
            assert abs(alpha.sum() - 1.0) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores = rng.normal(size=(1, int(rng.integers(2, 30)))) * 10.0
            shift = float(rng.normal() * 50.0)
            base = ops.softmax(ops.Tensor(scores)).values
            shifted = ops.softmax(ops.Tensor(scores + shift)).values
            np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestLanguageModel:
    """Interpolated estimates match hand counts and brute-force scans."""

    def test_two_sentence_toy_value(self):
        lm = train_lm(Corpus([["a", "b"], ["a", "c"]]), max_order=2)
        assert prob(lm, "b", ["a"]) == pytest.approx(0.375, abs=1e-12)

    def test_conditionals_sum_to_one(self):
        corpus = Corpus([["x", "y", "z"], ["y", "x"], ["z", "z", "x", "y"]])
        lm = train_lm(corpus, max_order=3)
        vocab = sorted({w for s in corpus.sentences for w in s} | {"<unk>"})
        for history in ([], ["x"], ["z", "z"], ["missing"]):
            total = sum(prob(lm, w, history) for w in vocab)
            assert abs(total - 1.0) < 1e-9, history

    def brute_force(self, sentences, max_order, word, history):
        """Each order weighs 1 / max_order, renormalized over the orders that saw the context."""
        vocab_size = len({w for s in sentences for w in s} | {"<unk>"})
        unigram_count = sum(s.count(word) for s in sentences)
        total_words = sum(len(s) for s in sentences)
        floor_unigram = (unigram_count / total_words + 1e-10) / (1.0 + 1e-10 * vocab_size)
        estimates = []
        for k in range(1, max_order + 1):
            if k == 1:
                estimates.append((1.0 / max_order, floor_unigram))
                continue
            wanted = tuple((["<sos>"] * (k - 1) + history)[-(k - 1):])
            ctx_count = gram_count = 0
            for s in sentences:
                for i, token in enumerate(s):
                    context = tuple((["<sos>"] * (k - 1) + s[:i])[-(k - 1):])
                    if context == wanted:
                        ctx_count += 1
                        if token == word:
                            gram_count += 1
            if ctx_count:
                estimates.append((1.0 / max_order, gram_count / ctx_count))
        weight = sum(lam for lam, _ in estimates)
        return sum(lam * p for lam, p in estimates) / weight

    def test_matches_brute_force_on_small_corpora(self):
        rng = np.random.default_rng(17)
        alphabet = ["wa", "wb", "wc", "wd"]
        for _ in range(20):
            sentences = [
                [alphabet[rng.integers(4)] for _ in range(rng.integers(1, 6))]
                for _ in range(rng.integers(1, 6))
            ]
            if sum(len(s) for s in sentences) > 50:
                continue
            for order in (1, 2, 3):
                lm = train_lm(Corpus(sentences), max_order=order)
                for word in alphabet + ["<unk>"]:
                    for history in ([], sentences[0][:1], sentences[0][:2]):
                        got = prob(lm, word, list(history))
                        want = self.brute_force(sentences, order, word, list(history))
                        assert got == pytest.approx(want, rel=1e-9), (word, history, order)


class TestScoreFusion:
    """Acoustic-only degeneracy of the mixed score."""

    def test_zero_lm_weight_reproduces_acoustic_ranking(self):
        rng = np.random.default_rng(23)
        cfg = FusionConfig(lambda_lm=0.0)
        for _ in range(50):
            pairs = [(-float(a), -float(l)) for a, l in rng.uniform(0.1, 20.0, size=(8, 2))]
            by_fused = sorted(range(8), key=lambda i: -fused_score(*pairs[i], cfg))
            by_acoustic = sorted(range(8), key=lambda i: -pairs[i][0])
            assert by_fused == by_acoustic


class FixedTableModel:
    """Decoder stub: the distribution over the next token depends only on
    the tokens consumed so far."""

    def __init__(self, table):
        self.table = table
        self.vocab_size = 6

    def dist(self, prefix):
        return self.table[prefix]

    def encode(self, x):
        return None

    def start_state(self):
        return ((), None)

    def attend(self, state_h, encoded):
        return None, None

    def decode_step(self, token, state, context):
        prefix = state[0] + (token,)
        probs = np.asarray(self.dist(prefix), dtype=np.float64)
        return (prefix, None), np.log(probs).reshape(1, -1)


class TestBeamOracle:
    """A wide enough beam equals exhaustive enumeration over a 3-step,
    4-emittable-token posterior table."""

    STEPS = 3
    VOCAB = build_vocabulary([IcdCode("X", ["aa", "bb"])])
    LM = train_lm(Corpus([["aa", "bb"], ["bb", "aa"]]), max_order=2)

    def random_table(self, rng):
        table = {}
        prefixes = [(SOS,)]
        for _ in range(self.STEPS):
            nxt = []
            for prefix in prefixes:
                row = rng.uniform(0.05, 1.0, size=6)
                row[0] = row[1] = 1e-12  # padding and start are never emitted
                table[prefix] = row.tolist()
                for token in (3, 4, 5):
                    nxt.append(prefix + (token,))
            prefixes = nxt
        return table

    def exhaustive_best(self, model, cfg):
        best = {}

        def consider(tokens, log_a, log_lm):
            score = fused_score(log_a, log_lm, cfg) / max(1, len(tokens) - 1)
            key = (-score, tokens)
            if not best or key < best["key"]:
                best.update(key=key, tokens=tokens)

        def walk(prefix, words, log_a, log_lm):
            probs = np.asarray(model.dist(prefix), dtype=np.float64)
            logp = np.log(probs) - np.log(probs.sum())
            for token in (2, 3, 4, 5):
                la = log_a + float(logp[token])
                if token == EOS:
                    consider(prefix + (token,), la, log_lm)
                    continue
                word = self.VOCAB.word_of(token)
                ll = log_lm
                if cfg.lambda_lm > 0:
                    ll += math.log(prob(self.LM, word, list(words)))
                child = prefix + (token,)
                if len(child) - 1 >= cfg.max_decode_len:
                    consider(child, la, ll)
                else:
                    walk(child, words + (word,), la, ll)

        walk((SOS,), (), 0.0, 0.0)
        return best["tokens"]

    @pytest.mark.parametrize("lam_lm", [0.0, 0.4])
    def test_width_64_is_exhaustive(self, lam_lm):
        rng = np.random.default_rng(61)
        for _ in range(10):
            model = FixedTableModel(self.random_table(rng))
            cfg = FusionConfig(
                lambda_lm=lam_lm, beam_width=64, max_decode_len=self.STEPS
            )
            lm = self.LM if lam_lm > 0 else None
            found = beam_search_decode(model, lm, np.zeros((1, 1)), cfg, self.VOCAB)
            assert found.tokens == self.exhaustive_best(model, cfg)


class TestWordErrorRate:
    """Alignment costs equal an independent Levenshtein recursion."""

    def test_exhaustive_short_pairs(self):
        words = ["a", "b", "c"]
        seqs = []
        for length in range(0, 5):
            seqs.extend(itertools.product(words, repeat=length))
        assert len(seqs) == 121
        for ref in seqs:
            if not ref:
                continue
            for hyp in seqs:
                assert wer(list(ref), list(hyp)).errors == edit_distance_oracle(ref, hyp)

    def test_sampled_long_pairs(self):
        rng = np.random.default_rng(83)
        words = ["a", "b", "c"]
        for _ in range(400):
            ref = [words[rng.integers(3)] for _ in range(rng.integers(1, 9))]
            hyp = [words[rng.integers(3)] for _ in range(rng.integers(0, 9))]
            assert wer(ref, hyp).errors == edit_distance_oracle(ref, hyp)

    def test_deletion_fixture(self):
        breakdown = wer(
            "generalized abdominal pain".split(), "abdominal pain".split()
        )
        assert breakdown.wer == pytest.approx(1 / 3)
        assert (breakdown.substitutions, breakdown.deletions, breakdown.insertions) == (0, 1, 0)

    def test_substitution_fixture(self):
        breakdown = wer(
            "intracranial injury without loss of consciousness".split(),
            "intracranial injury with loss of consciousness".split(),
        )
        assert breakdown.wer == pytest.approx(1 / 6)
        assert (breakdown.substitutions, breakdown.deletions, breakdown.insertions) == (1, 0, 0)


def corpus_bleu(pairs):
    """The report's corpus BLEU, the package's one BLEU entry."""
    return score_pairs(pairs, seed=0, resamples=1).corpus_bleu


class TestBleu:
    """Identity, disjoint and frozen-value checks for the score."""

    def test_identity_is_one(self):
        hyp = "the quick brown fox jumps".split()
        assert corpus_bleu([(hyp, hyp)]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert corpus_bleu([(["aa", "bb", "cc"], ["dd", "ee", "ff"])]) == 0.0

    def test_frozen_six_word_example(self):
        reference = "the cat is on the mat".split()
        hypothesis = "the cat on the mat".split()
        assert corpus_bleu([(reference, hypothesis)]) == pytest.approx(0.4947386, abs=1e-6)


def desk_encoder():
    return EncoderConfig(
        conv=(ConvSpec(16, 2, 1), ConvSpec(16, 2, 2)), layers=2, beta=2, hidden=64
    )


def desk_decoder():
    return DecoderConfig(embedding_dim=32, hidden=64, attention_dim=32)


class TestOverfitRecovery:
    """Ten far-field utterances are memorized within 200 epochs and ten
    minutes, to at most 5% word error."""

    def test_overfit_ten_utterances(self):
        started = time.monotonic()
        codes = load_icd_list(bundled_icd_path())[:10]
        dataset = DatasetConfig(
            repeats=1, cap=1,
            speakers=[SpeakerProfile("spk0", base_pitch=140.0, rate=0.95, seed=101)],
        )
        manifest = generate_dataset(codes, dataset)
        vocab = manifest.vocabulary
        utterances = list(iter_utterances(manifest))
        assert len(utterances) == 10

        lm = train_lm(Corpus([list(c.words) for c in codes]), max_order=3)
        config = RunConfig(seed=0, dataset=dataset, encoder=desk_encoder(), decoder=desk_decoder(),
                           fusion=FusionConfig(lm_sample_max=0.0),
                           optimizer=OptimizerConfig(lr=2e-3))
        model = fresh_model(config, vocab)
        optimizer = AdamState(model.values.size)
        decode_cfg = FusionConfig(lambda_lm=0.0, beam_width=1, max_decode_len=12)

        final_wer = None
        trained = 0
        max_epochs = 200
        for chunk_end in range(20, max_epochs + 1, 20):
            chunk = replace(config, training=replace(config.training, epochs=chunk_end))
            list(train_with_scheduled_lm_sampling(model, lm, vocab, utterances, chunk, optimizer,
                                                  start_epoch=trained))
            trained = chunk_end
            final_wer = pooled_wer(model, None, utterances, decode_cfg, vocab)
            if final_wer <= 0.05:
                break

        elapsed = time.monotonic() - started
        assert final_wer <= 0.05, f"wer {final_wer} after {trained} epochs"
        assert trained <= max_epochs
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


class TestHeldOutSpeaker:
    """Training on two speakers transfers to the third far better than a
    uniform-word chance decoder; no absolute accuracy is promised."""

    def chance_wer(self, utterances, vocab, seed=0):
        rng = np.random.default_rng(seed)
        content = vocab.content_words
        errors = words = 0
        for utt in utterances:
            reference = vocab.decode(utt.target)
            guess = [content[rng.integers(len(content))] for _ in reference]
            breakdown = wer(reference, guess)
            errors += breakdown.errors
            words += breakdown.reference_length
        return errors / words

    def test_generalizes_across_speakers(self):
        codes = load_icd_list(bundled_icd_path())
        dataset = DatasetConfig(repeats=1, cap=1)
        manifest = generate_dataset(codes, dataset)
        vocab = manifest.vocabulary
        train_manifest, test_manifest = split_by_speaker(manifest, "spk2")
        train_utts = list(iter_utterances(train_manifest))
        test_utts = list(iter_utterances(test_manifest))
        assert len(train_utts) == 40 and len(test_utts) == 20

        lm = train_lm(Corpus([list(c.words) for c in codes]), max_order=3)
        config = RunConfig(seed=0, dataset=dataset, encoder=desk_encoder(), decoder=desk_decoder(),
                           fusion=FusionConfig(lm_sample_max=0.0),
                           optimizer=OptimizerConfig(lr=2e-3), training=TrainingConfig(epochs=30))
        model = fresh_model(config, vocab)
        list(train_with_scheduled_lm_sampling(model, lm, vocab, train_utts, config,
                                              AdamState(model.values.size)))

        decode_cfg = FusionConfig(lambda_lm=0.3, beam_width=2, max_decode_len=12)
        model_wer = pooled_wer(model, lm, test_utts, decode_cfg, vocab)
        baseline = self.chance_wer(test_utts, vocab)
        assert model_wer < baseline, (model_wer, baseline)


class TestReproducibility:
    """The same config and seed give byte-identical artifacts."""

    CONFIG = {
        "dataset": {
            "repeats": 2,
            "cap": 2,
            "speakers": [
                {"speaker_id": "one", "base_pitch": 130.0, "rate": 0.9, "seed": 4},
                {"speaker_id": "two", "base_pitch": 210.0, "rate": 1.1, "seed": 5},
            ],
            "frontend": {"sample_rate": 16000, "window": 400, "hop": 160, "n_mels": 8},
        },
        "encoder": {
            "conv": [{"channels": 4, "stride": 3, "dilation": 1, "kernel": 3}],
            "layers": 1, "beta": 3, "hidden": 8,
        },
        "decoder": {"embedding_dim": 4, "hidden": 8, "attention_dim": 4},
        "fusion": {"lm_sample_max": 0.5, "ramp_frac": 0.0, "beam_width": 2, "max_decode_len": 6},
        "training": {"epochs": 2, "holdout_fraction": 0.0, "wer_every": 0},
    }
    CODES = "C1\tbeta blocker\nC2\tserum\n"

    def run_pipeline(self, root):
        config = root / "config.json"
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        codes = root / "codes.tsv"
        codes.write_text(self.CODES, encoding="utf-8")
        data = root / "data"
        assert main(["generate-data", "--config", str(config), "--codes", str(codes),
                     "--output", str(data)]) == 0
        lm = root / "lm.json"
        assert main(["train-lm", "--corpus", str(data / "corpus.txt"),
                     "--order", "2", "--output", str(lm)]) == 0
        ckpt = root / "model.json"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--lm", str(lm), "--output", str(ckpt)]) == 0
        report = root / "report.json"
        assert main(["evaluate", "--ckpt", str(ckpt), "--lm", str(lm),
                     "--manifest", str(data / "test.json"), "--resamples", "40",
                     "--output", str(report)]) == 0
        return data, lm, ckpt, report

    def test_full_pipeline_twice_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        data_a, lm_a, ckpt_a, report_a = self.run_pipeline(first)
        data_b, lm_b, ckpt_b, report_b = self.run_pipeline(second)
        for name in ("train.json", "test.json", "config.json"):
            assert (data_a / name).read_bytes() == (data_b / name).read_bytes()
        assert lm_a.read_bytes() == lm_b.read_bytes()
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        assert report_a.read_bytes() == report_b.read_bytes()


class TestNumpyOnlyRuntime:
    """Importing every icdscribe module loads nothing beyond numpy and the standard library."""

    def test_every_module_imports_only_the_standard_library(self):
        script = (
            "import json, pkgutil, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import icdscribe\n"
            "for info in pkgutil.walk_packages(icdscribe.__path__, 'icdscribe.'):\n"
            "    __import__(info.name)\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
        )
        src = str(Path(icdscribe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        loaded = json.loads(done.stdout)
        assert "icdscribe" in loaded
        assert [m for m in loaded if m != "icdscribe" and m not in sys.stdlib_module_names] == []
