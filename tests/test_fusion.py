import math
from types import SimpleNamespace

import numpy as np
import pytest

from icdscribe.autodiff import (
    AdamState,
    Tensor,
    adam_step,
    backward,
    clip_global_norm,
    softmax_cross_entropy,
)
from icdscribe.data import EOS, SOS, IcdCode, build_vocabulary
from icdscribe.errors import ConfigError, ContractError, ValidationError
from icdscribe.fusion import (
    FusionConfig,
    beam_search_decode,
    fused_score,
    greedy_decode,
    lm_sample_probability,
    sampled_inputs,
    train_with_scheduled_lm_sampling,
    transcribe,
)
from icdscribe.lm import Corpus, train_lm
from icdscribe.lm import prob as lm_prob
from icdscribe.model import (
    ConvSpec,
    DecoderConfig,
    EncoderConfig,
    Seq2SeqModel,
    standardize_spectrogram,
)

VOCAB = build_vocabulary([IcdCode("X", ["aa", "bb"])])  # aa=4, bb=5
LM = train_lm(Corpus([["aa", "bb"], ["bb", "aa"], ["aa", "bb"]]), max_order=2)


class TableModel:
    """Decoder stub with fixed next-token distributions per consumed prefix."""

    def __init__(self, table, vocab_size=6):
        self.table = table
        self.default = [1e-12, 1e-12, 0.6, 1e-12, 0.2, 0.2]
        self.decoder_cfg = SimpleNamespace(vocab_size=vocab_size)

    def dist(self, prefix):
        return self.table.get(prefix, self.default)

    def encode(self, x):
        return None

    def start_state(self):
        return ((), None)

    def attend(self, state_h, encoded):
        return None, None

    def decode_step(self, token, state, context):
        prefix = state[0] + (token,)
        probs = np.asarray(self.dist(prefix), dtype=np.float64)
        return (prefix, None), Tensor(np.log(probs).reshape(1, -1))


PEAKED = TableModel(
    {
        (1,): [1e-12, 1e-12, 0.05, 1e-12, 0.70, 0.25],
        (1, 4): [1e-12, 1e-12, 0.20, 1e-12, 0.15, 0.65],
        (1, 5): [1e-12, 1e-12, 0.60, 1e-12, 0.30, 0.10],
        (1, 4, 5): [1e-12, 1e-12, 0.85, 1e-12, 0.10, 0.05],
        (1, 4, 4): [1e-12, 1e-12, 0.70, 1e-12, 0.15, 0.15],
        (1, 5, 4): [1e-12, 1e-12, 0.80, 1e-12, 0.10, 0.10],
        (1, 5, 5): [1e-12, 1e-12, 0.75, 1e-12, 0.15, 0.10],
    }
)

DUMMY_SPEC = np.zeros((2, 2))


def exhaustive_best(model, lm, cfg):
    """Walk the complete hypothesis tree and return the best final entry."""
    best = {}

    def consider(tokens, log_a, log_lm):
        score = fused_score(log_a, log_lm, cfg) / max(1, len(tokens) - 1)
        key = (-score, tokens)
        if not best or key < best["key"]:
            best.update(key=key, tokens=tokens, score=score)

    def walk(prefix, words, log_a, log_lm):
        probs = np.asarray(model.dist(prefix), dtype=np.float64)
        logp = np.log(probs) - np.log(probs.sum())
        for token in range(6):
            if token in (0, 1):
                continue
            la = log_a + logp[token]
            if token == EOS:
                consider(prefix + (token,), la, log_lm)
                continue
            word = VOCAB.word_of(token)
            ll = log_lm
            if cfg.lambda_lm > 0:
                ll += math.log(lm_prob(lm, word, list(words)))
            child = prefix + (token,)
            if len(child) - 1 >= cfg.max_decode_len:
                consider(child, la, ll)
            else:
                walk(child, words + (word,), la, ll)

    walk((SOS,), (), 0.0, 0.0)
    return best


class TestFusedScore:
    def test_unit_weights_average(self):
        cfg = FusionConfig(lambda_acoustic=1.0, lambda_lm=1.0)
        assert fused_score(-2.0, -4.0, cfg) == pytest.approx(-3.0)

    def test_acoustic_only_degenerates(self):
        cfg = FusionConfig(lambda_acoustic=1.0, lambda_lm=0.0)
        assert fused_score(-2.7, -99.0, cfg) == -2.7

    def test_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(lambda_acoustic=0.0, lambda_lm=0.0)
        with pytest.raises(ConfigError):
            FusionConfig(lambda_acoustic=-1.0, lambda_lm=2.0)

    def test_scaling_weights_preserves_ranking(self):
        rng = np.random.default_rng(3)
        scores = [(-float(a), -float(l)) for a, l in rng.uniform(0.1, 9.0, size=(20, 2))]
        base = FusionConfig(lambda_acoustic=1.0, lambda_lm=0.3)
        for kappa in (0.37, 5.0):
            scaled = FusionConfig(lambda_acoustic=kappa, lambda_lm=0.3 * kappa)
            order_base = sorted(range(20), key=lambda i: fused_score(*scores[i], base))
            order_scaled = sorted(range(20), key=lambda i: fused_score(*scores[i], scaled))
            assert order_base == order_scaled
            for la, ll in scores:
                assert fused_score(la, ll, scaled) == pytest.approx(fused_score(la, ll, base))


class TestSchedule:
    def test_linear_ramp_then_plateau(self):
        cfg = FusionConfig(lm_sample_max=0.25, ramp_frac=0.5)
        probs = [lm_sample_probability(cfg, e, 10) for e in range(10)]
        assert probs[0] == 0.0
        assert probs[2] == pytest.approx(0.10)
        assert probs[5] == pytest.approx(0.25)
        assert probs[9] == pytest.approx(0.25)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_zero_ramp_is_constant(self):
        cfg = FusionConfig(lm_sample_max=1.0, ramp_frac=0.0)
        assert [lm_sample_probability(cfg, e, 5) for e in range(5)] == [1.0] * 5

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig(lm_sample_max=1.5)


class TestSampledInputs:
    def test_zero_probability_is_teacher_forcing(self):
        target = [SOS, 4, 5, EOS]
        inputs = sampled_inputs(LM, VOCAB, target, 0.0, np.random.default_rng(0))
        assert inputs == [SOS, 4, 5]

    def test_full_probability_never_feeds_ground_truth(self):
        disjoint_lm = train_lm(Corpus([["qq", "rr"], ["rr", "qq"]]), max_order=2)
        target = [SOS, 4, 5, EOS]
        for seed in range(10):
            inputs = sampled_inputs(disjoint_lm, VOCAB, target, 1.0, np.random.default_rng(seed))
            assert inputs[0] == SOS
            assert all(tok not in (4, 5) for tok in inputs[1:])

    def test_deterministic_given_rng_state(self):
        target = [SOS, 4, 5, 4, EOS]
        a = sampled_inputs(LM, VOCAB, target, 0.5, np.random.default_rng(11))
        b = sampled_inputs(LM, VOCAB, target, 0.5, np.random.default_rng(11))
        assert a == b

    def test_targets_left_untouched(self):
        target = [SOS, 4, 5, EOS]
        sampled_inputs(LM, VOCAB, target, 1.0, np.random.default_rng(2))
        assert target == [SOS, 4, 5, EOS]


def tiny_model(seed=0):
    enc = EncoderConfig(
        conv=(ConvSpec(channels=3, stride=2, dilation=1, kernel=2),), layers=1, beta=2, hidden=6
    )
    dec = DecoderConfig(vocab_size=len(VOCAB), embedding_dim=4, hidden=6, attention_dim=3)
    return Seq2SeqModel(enc, dec, input_dim=5, seed=seed)


def fake_utterances():
    rng = np.random.default_rng(8)
    specs = [rng.normal(size=(18, 5)), rng.normal(size=(14, 5))]
    targets = [[SOS, 4, 5, EOS], [SOS, 5, EOS]]
    return [
        SimpleNamespace(spectrogram=SimpleNamespace(values=s), target=t)
        for s, t in zip(specs, targets)
    ]


class TestTraining:
    def test_zero_schedule_equals_plain_teacher_forcing(self):
        utts = fake_utterances()
        cfg = FusionConfig(lm_sample_max=0.0)

        trained = tiny_model(seed=5)
        log = train_with_scheduled_lm_sampling(
            trained, LM, VOCAB, utts, cfg, epochs=3, optimizer=AdamState(trained.parameters()), seed=1
        )

        manual = tiny_model(seed=5)
        opt = AdamState(manual.parameters())
        manual_losses = []
        for _ in range(3):
            total = 0.0
            for utt in utts:
                feats = standardize_spectrogram(utt.spectrogram.values)
                loss = softmax_cross_entropy(
                    manual.forward_teacher_forced(feats, utt.target), utt.target[1:]
                )
                backward(loss)
                clip_global_norm(manual.parameters(), 5.0)
                adam_step(manual.parameters(), opt)
                total += loss.item()
            manual_losses.append(total / len(utts))

        assert [e.mean_loss for e in log] == manual_losses

    def test_fixed_seed_reproduces_loss_trajectory(self):
        cfg = FusionConfig(lm_sample_max=0.5, ramp_frac=0.0)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=2)
            log = train_with_scheduled_lm_sampling(
                model, LM, VOCAB, fake_utterances(), cfg, epochs=4,
                optimizer=AdamState(model.parameters()), seed=9,
            )
            runs.append([e.mean_loss for e in log])
        assert runs[0] == runs[1]

    def test_loss_decreases_on_tiny_problem(self):
        model = tiny_model(seed=3)
        opt = AdamState(model.parameters(), lr=5e-3)
        log = train_with_scheduled_lm_sampling(
            model, LM, VOCAB, fake_utterances(), FusionConfig(lm_sample_max=0.0),
            epochs=25, optimizer=opt, seed=0,
        )
        assert log[-1].mean_loss < log[0].mean_loss * 0.7

    def test_vocabulary_mismatch_rejected(self):
        vocab = build_vocabulary([IcdCode("X", ["aa", "zebra"])])
        model = tiny_model()
        with pytest.raises(ValidationError, match="zebra"):
            train_with_scheduled_lm_sampling(
                model, LM, vocab, fake_utterances(), FusionConfig(),
                epochs=1, optimizer=AdamState(model.parameters()),
            )

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        with pytest.raises(ContractError):
            train_with_scheduled_lm_sampling(
                model, LM, VOCAB, [], FusionConfig(), epochs=1,
                optimizer=AdamState(model.parameters()),
            )

    def test_nan_loss_stops_before_the_update(self):
        utts = fake_utterances()
        utts[1].spectrogram.values[3, 2] = np.nan  # every feature, loss and gradient turn NaN
        cfg = FusionConfig(lm_sample_max=0.0)
        model, twin = tiny_model(seed=4), tiny_model(seed=4)
        opt = AdamState(model.parameters())
        with pytest.raises(ValidationError, match="epoch 0, utterance 1"):
            train_with_scheduled_lm_sampling(model, LM, VOCAB, utts, cfg, epochs=2, optimizer=opt)
        # the twin takes only the good first step; the bad one must change nothing
        train_with_scheduled_lm_sampling(
            twin, LM, VOCAB, utts[:1], cfg, epochs=1, optimizer=AdamState(twin.parameters())
        )
        assert opt.step == 1
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.values, twin.named_parameters()[name].values), name

    def test_schedule_recorded_in_log(self):
        model = tiny_model()
        cfg = FusionConfig(lm_sample_max=0.25, ramp_frac=0.5)
        log = train_with_scheduled_lm_sampling(
            model, LM, VOCAB, fake_utterances()[:1], cfg, epochs=4,
            optimizer=AdamState(model.parameters()),
        )
        assert [e.lm_sample_p for e in log] == [
            lm_sample_probability(cfg, e, 4) for e in range(4)
        ]


class TestBeamSearch:
    def test_width_one_equals_greedy(self):
        for lam in (0.0, 0.4):
            cfg = FusionConfig(lambda_lm=lam, beam_width=1, max_decode_len=3)
            beamed = beam_search_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
            greedy = greedy_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
            assert beamed.tokens == greedy.tokens
            assert beamed.fused == pytest.approx(greedy.fused)

    def test_acoustic_only_follows_argmax_path(self):
        cfg = FusionConfig(lambda_lm=0.0, beam_width=1, max_decode_len=3)
        best = beam_search_decode(PEAKED, None, DUMMY_SPEC, cfg, VOCAB)
        assert best.tokens == (1, 4, 5, 2)

    @pytest.mark.parametrize("width", [2, 4])
    def test_small_widths_match_exhaustive_search(self, width):
        cfg = FusionConfig(lambda_lm=0.3, beam_width=width, max_decode_len=3)
        best = beam_search_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
        oracle = exhaustive_best(PEAKED, LM, cfg)
        assert best.tokens == oracle["tokens"]
        assert best.fused / best.steps == pytest.approx(oracle["score"], abs=1e-12)

    def test_huge_width_is_exhaustive(self):
        flat = TableModel(
            {
                (1,): [1e-12, 1e-12, 0.25, 1e-12, 0.40, 0.35],
                (1, 4): [1e-12, 1e-12, 0.34, 1e-12, 0.33, 0.33],
                (1, 5): [1e-12, 1e-12, 0.30, 1e-12, 0.36, 0.34],
            }
        )
        cfg = FusionConfig(lambda_lm=0.5, beam_width=100, max_decode_len=3)
        best = beam_search_decode(flat, LM, DUMMY_SPEC, cfg, VOCAB)
        oracle = exhaustive_best(flat, LM, cfg)
        assert best.tokens == oracle["tokens"]

    def test_beam_never_below_greedy(self):
        for lam in (0.0, 0.3, 1.0):
            cfg = FusionConfig(lambda_lm=lam, beam_width=4, max_decode_len=3)
            beamed = beam_search_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
            greedy = greedy_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
            assert beamed.fused / beamed.steps >= greedy.fused / greedy.steps - 1e-12

    def test_deterministic(self):
        cfg = FusionConfig(lambda_lm=0.3, beam_width=4, max_decode_len=3)
        a = beam_search_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
        b = beam_search_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
        assert a.tokens == b.tokens and a.fused == b.fused

    def test_hypothesis_invariants(self):
        cfg = FusionConfig(lambda_lm=0.3, beam_width=4, max_decode_len=3)
        best = beam_search_decode(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
        assert best.completed
        assert best.log_acoustic <= 0.0 and best.log_lm <= 0.0
        assert best.fused == pytest.approx(
            fused_score(best.log_acoustic, best.log_lm, cfg), abs=1e-12
        )

    def test_length_cap_completes_hypotheses(self):
        looping = TableModel({})  # default rows keep emitting content mass
        cfg = FusionConfig(lambda_lm=0.0, beam_width=2, max_decode_len=4)
        best = beam_search_decode(looping, None, DUMMY_SPEC, cfg, VOCAB)
        assert best.completed
        assert len(best.tokens) - 1 <= 4

    def test_missing_lm_rejected_when_weighted(self):
        cfg = FusionConfig(lambda_lm=0.5, beam_width=2)
        with pytest.raises(ContractError):
            beam_search_decode(PEAKED, None, DUMMY_SPEC, cfg, VOCAB)


class TestTranscribe:
    def test_output_contains_only_content_words(self):
        cfg = FusionConfig(lambda_lm=0.3, beam_width=4, max_decode_len=3)
        words = transcribe(PEAKED, LM, DUMMY_SPEC, cfg, VOCAB)
        assert words
        for w in words:
            assert w in ("aa", "bb")

    def test_immediate_stop_yields_explicit_empty(self):
        quitter = TableModel({(1,): [1e-12, 1e-12, 0.999, 1e-12, 5e-4, 5e-4]})
        cfg = FusionConfig(lambda_lm=0.0, beam_width=2, max_decode_len=3)
        assert transcribe(quitter, None, DUMMY_SPEC, cfg, VOCAB) == []
