import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import graph_attend, graph_decode_step, graph_encode, update_gradients, zeros
from icdscribe.autodiff import (
    AdamState,
    OptimizerConfig,
    Tensor,
    adam_step,
    clip_global_norm,
    log_softmax_values,
)
from icdscribe.config import RunConfig, TrainingConfig
from icdscribe.data import EOS, PAD, SOS, IcdCode, build_vocabulary
from icdscribe.errors import ContractError
from icdscribe.fusion import (
    FusionConfig,
    Hypothesis,
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
)

VOCAB = build_vocabulary([IcdCode("X", ["aa", "bb"])])  # aa=4, bb=5
LM = train_lm(Corpus([["aa", "bb"], ["bb", "aa"], ["aa", "bb"]]), max_order=2)
CLIP_NORM = TrainingConfig().clip_norm


class TableModel:
    """Decoder stub with fixed next-token distributions per consumed prefix."""

    def __init__(self, table, vocab_size=6):
        self.table = table
        self.default = [1e-12, 1e-12, 0.6, 1e-12, 0.2, 0.2]
        self.vocab_size = vocab_size

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
        return (prefix, None), np.log(probs).reshape(1, -1)


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


LOG_SCORE_ST = st.floats(min_value=-1e6, max_value=0.0)


class TestFusedScore:
    def test_unit_weights_average(self):
        cfg = FusionConfig(lambda_lm=1.0)
        assert fused_score(-2.0, -4.0, cfg) == pytest.approx(-3.0)

    def test_acoustic_only_degenerates(self):
        cfg = FusionConfig(lambda_lm=0.0)
        assert fused_score(-2.7, -99.0, cfg) == -2.7

    def test_negative_or_non_finite_weight_rejected(self):
        for lambda_lm in (-1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ContractError, match=re.escape("outside [0, inf)")):
                FusionConfig(lambda_lm=lambda_lm)

    @given(
        log_acoustic=st.lists(LOG_SCORE_ST, min_size=1, max_size=6),
        log_lm=LOG_SCORE_ST,
        lambda_lm=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_two_weight_form_at_unit_acoustic_weight(
        self, log_acoustic, log_lm, lambda_lm
    ):
        """Bit for bit the score of the former (lambda_acoustic, lambda_lm) pair at (1.0, λ)."""
        lambda_acoustic = 1.0

        def two_weight_form(la, ll):
            total = lambda_acoustic + lambda_lm
            return (lambda_acoustic * la + lambda_lm * ll) / total

        cfg = FusionConfig(lambda_lm=lambda_lm)
        for la in log_acoustic:
            assert fused_score(la, log_lm, cfg) == two_weight_form(la, log_lm)
        vector_a, vector_l = np.array(log_acoustic), np.full(len(log_acoustic), log_lm)
        got = fused_score(vector_a, vector_l, cfg)
        assert got.tobytes() == two_weight_form(vector_a, vector_l).tobytes()


class TestConfigBounds:
    def test_decode_sizes_accept_exactly_their_ranges(self):
        FusionConfig(beam_width=1, max_decode_len=1)
        FusionConfig(beam_width=64, max_decode_len=256)
        for field, value in [("beam_width", 0), ("beam_width", 65), ("max_decode_len", 0),
                             ("max_decode_len", 257)]:
            with pytest.raises(ContractError, match=f"{field} {value} outside"):
                FusionConfig(**{field: value})


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
        with pytest.raises(ContractError):
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
    dec = DecoderConfig(embedding_dim=4, hidden=6, attention_dim=3)
    return Seq2SeqModel(enc, dec, len(VOCAB), input_dim=5, seed=seed)


def run_config(fusion=FusionConfig(), epochs=1, seed=0, optimizer=OptimizerConfig()):
    """The run config the training loop reads: the default clip norm and these settings."""
    return RunConfig(seed=seed, fusion=fusion, optimizer=optimizer,
                     training=TrainingConfig(epochs=epochs))


def fake_utterances():
    rng = np.random.default_rng(8)
    specs = [rng.normal(size=(18, 5)), rng.normal(size=(14, 5))]
    targets = [[SOS, 4, 5, EOS], [SOS, 5, EOS]]
    return [
        SimpleNamespace(spectrogram=s, target=t)
        for s, t in zip(specs, targets)
    ]


class TestTraining:
    def test_zero_schedule_equals_plain_teacher_forcing(self):
        utts = fake_utterances()
        cfg = FusionConfig(lm_sample_max=0.0)

        trained = tiny_model(seed=5)
        log = list(train_with_scheduled_lm_sampling(
            trained, LM, VOCAB, utts, run_config(cfg, epochs=3, seed=1),
            AdamState(trained.values.size),
        ))

        manual = tiny_model(seed=5)
        opt = AdamState(manual.values.size)
        manual_losses = []
        for _ in range(3):
            total = 0.0
            for utt in utts:
                loss = update_gradients(manual, utt.spectrogram, utt.target)
                clip_global_norm(manual.grads, 5.0)
                adam_step(manual.values, manual.grads, opt, OptimizerConfig())
                total += loss
            manual_losses.append(total / len(utts))

        assert [e.loss for e in log] == manual_losses

    def test_log_records_each_epochs_gradient_norms_and_clipping(self):
        utts, clip = fake_utterances(), 0.5  # clips the second utterance's update, not the first's
        config = RunConfig(fusion=FusionConfig(lm_sample_max=0.0),
                           training=TrainingConfig(epochs=3, clip_norm=clip))
        trained = tiny_model(seed=5)
        log = list(train_with_scheduled_lm_sampling(trained, LM, VOCAB, utts, config,
                                                    AdamState(trained.values.size)))

        manual = tiny_model(seed=5)
        opt = AdamState(manual.values.size)
        expected = []
        for _ in range(3):
            norms = []
            for utt in utts:
                update_gradients(manual, utt.spectrogram, utt.target)
                norms.append(clip_global_norm(manual.grads, clip))
                adam_step(manual.values, manual.grads, opt, OptimizerConfig())
            expected.append((sum(norms) / 2, max(norms), sum(n > clip for n in norms) / 2))

        assert [(e.grad_norm_mean, e.grad_norm_max, e.clipped_frac) for e in log] == expected
        assert [e.clipped_frac for e in log] == [0.5] * 3

    def test_fixed_seed_reproduces_loss_trajectory(self):
        cfg = FusionConfig(lm_sample_max=0.5, ramp_frac=0.0)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=2)
            log = list(train_with_scheduled_lm_sampling(
                model, LM, VOCAB, fake_utterances(), run_config(cfg, epochs=4, seed=9),
                AdamState(model.values.size),
            ))
            runs.append([e.loss for e in log])
        assert runs[0] == runs[1]

    def test_loss_decreases_on_tiny_problem(self):
        model = tiny_model(seed=3)
        config = run_config(FusionConfig(lm_sample_max=0.0), epochs=25,
                            optimizer=OptimizerConfig(lr=5e-3))
        log = list(train_with_scheduled_lm_sampling(
            model, LM, VOCAB, fake_utterances(), config, AdamState(model.values.size),
        ))
        assert log[-1].loss < log[0].loss * 0.7

    def test_vocabulary_mismatch_rejected(self):
        vocab = build_vocabulary([IcdCode("X", ["aa", "zebra"])])
        model = tiny_model()
        with pytest.raises(ContractError, match="zebra"):
            list(train_with_scheduled_lm_sampling(
                model, LM, vocab, fake_utterances(), run_config(), AdamState(model.values.size),
            ))

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        with pytest.raises(ContractError):
            list(train_with_scheduled_lm_sampling(
                model, LM, VOCAB, [], run_config(), AdamState(model.values.size),
            ))

    def test_nan_loss_stops_before_the_update(self):
        utts = fake_utterances()
        utts[1].spectrogram[3, 2] = np.nan  # the loss and every gradient turn NaN
        cfg = FusionConfig(lm_sample_max=0.0)
        model, twin = tiny_model(seed=4), tiny_model(seed=4)
        opt = AdamState(model.values.size)
        with pytest.raises(ContractError, match="epoch 0, utterance 1"):
            list(train_with_scheduled_lm_sampling(
                model, LM, VOCAB, utts, run_config(cfg, epochs=2), opt,
            ))
        # the twin takes only the good first step; the bad one must change nothing
        list(train_with_scheduled_lm_sampling(
            twin, LM, VOCAB, utts[:1], run_config(cfg), AdamState(twin.values.size),
        ))
        assert opt.step == 1
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.values, twin.named_parameters()[name].values), name

    def test_schedule_recorded_in_log(self):
        model = tiny_model()
        cfg = FusionConfig(lm_sample_max=0.25, ramp_frac=0.5)
        log = list(train_with_scheduled_lm_sampling(
            model, LM, VOCAB, fake_utterances()[:1], run_config(cfg, epochs=4),
            AdamState(model.values.size),
        ))
        assert [e.lm_sample_p for e in log] == [
            lm_sample_probability(cfg, e, 4) for e in range(4)
        ]

    def test_an_epoch_holds_no_second_copy_of_the_spectrograms(self):
        """Long utterances and a tiny model: the set's bytes dwarf one update's working set."""
        rng = np.random.default_rng(6)
        utts = [SimpleNamespace(spectrogram=rng.normal(size=(4000, 5)), target=[SOS, 4, 5, EOS])
                for _ in range(16)]
        spectrogram_bytes = sum(u.spectrogram.nbytes for u in utts)  # 2.56 MB
        enc = EncoderConfig(conv=(ConvSpec(channels=2, stride=4, kernel=1),), beta=4, hidden=2)
        model = Seq2SeqModel(enc, DecoderConfig(2, 2, 2), len(VOCAB), input_dim=5)
        records = train_with_scheduled_lm_sampling(
            model, LM, VOCAB, utts, run_config(), AdamState(model.values.size),
        )
        tracemalloc.start()
        try:
            next(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spectrogram_bytes / 2


# a run whose every setting the loop reads shows in its parameters or records: swaps are on
# from the first epoch, so the seed and the swap probability both reach the inputs
BASE_RUN = run_config(FusionConfig(lm_sample_max=0.5, ramp_frac=0.0), epochs=2, seed=0)
ONE_SETTING_CHANGED = {
    "optimizer.lr": replace(BASE_RUN, optimizer=OptimizerConfig(lr=1e-2)),
    "training.clip_norm": replace(BASE_RUN, training=replace(BASE_RUN.training, clip_norm=1e-3)),
    "training.epochs": replace(BASE_RUN, training=replace(BASE_RUN.training, epochs=3)),
    "seed": replace(BASE_RUN, seed=1),
    "fusion.lm_sample_max": replace(BASE_RUN, fusion=replace(BASE_RUN.fusion, lm_sample_max=1.0)),
}


class TestTrainingReadsTheRunConfig:
    """The loop takes each setting from the run config it is handed, not from a stale copy."""

    @staticmethod
    def trained(config):
        """The parameter bytes and the log lines of a run of the same model under `config`."""
        model = tiny_model(seed=2)
        records = train_with_scheduled_lm_sampling(model, LM, VOCAB, fake_utterances(), config,
                                                   AdamState(model.values.size))
        return model.values.tobytes(), [record.line() for record in records]

    @pytest.mark.parametrize("setting", sorted(ONE_SETTING_CHANGED))
    def test_a_changed_setting_changes_the_run_and_the_same_config_does_not(self, setting):
        base = self.trained(BASE_RUN)
        assert self.trained(BASE_RUN) == base
        assert self.trained(ONE_SETTING_CHANGED[setting]) != base

    def test_the_changed_clip_norm_clips_every_update(self, monkeypatch):
        norms = []

        def recorded(grads, max_norm):
            norms.append(clip_global_norm(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr("icdscribe.fusion.clip_global_norm", recorded)
        self.trained(ONE_SETTING_CHANGED["training.clip_norm"])
        assert len(norms) == 4 and min(norms) > 1e-3  # 2 utterances x 2 epochs


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
        cfg = FusionConfig(lambda_lm=0.5, beam_width=64, max_decode_len=3)
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


def reference_beam_search(model, lm, cfg, vocab):
    """Beam search as first written: every admissible child built, scored and sorted."""

    def expand(hyp):
        _, context = model.attend(hyp.state[0], encoded)
        state, logits = model.decode_step(hyp.tokens[-1], hyp.state, context)
        logp = log_softmax_values(logits)[0]
        children = []
        for token in range(model.vocab_size):
            if token in (PAD, SOS):
                continue
            log_a = hyp.log_acoustic + float(logp[token])
            if token == EOS:
                log_l, words, done = hyp.log_lm, hyp.words, True
            else:
                word = vocab.word_of(token)
                log_l = hyp.log_lm
                if cfg.lambda_lm > 0:
                    log_l += math.log(lm_prob(lm, word, list(hyp.words)))
                words = hyp.words + (word,)
                done = len(hyp.tokens) >= cfg.max_decode_len
            children.append(Hypothesis(hyp.tokens + (token,), words, log_a, log_l,
                                       fused_score(log_a, log_l, cfg), state, done))
        return children

    def take_best(candidates, width):
        return sorted(candidates, key=lambda h: (-(h.fused / h.steps), h.tokens))[:width]

    encoded = model.encode(None)
    beam = [Hypothesis((SOS,), (), 0.0, 0.0, 0.0, model.start_state(), completed=False)]
    while any(not h.completed for h in beam):
        candidates = [h for h in beam if h.completed]
        for hyp in beam:
            if not hyp.completed:
                candidates.extend(expand(hyp))
        beam = take_best(candidates, cfg.beam_width)
    return take_best(beam, 1)[0]


WIDE_VOCAB = build_vocabulary([IcdCode("X", ["aa", "bb", "cc", "dd", "ee"])])  # ids 4..8
WIDE_LM = train_lm(Corpus([["aa", "bb", "cc"], ["bb", "aa"], ["cc", "aa", "bb"], ["zz"]]),
                   max_order=3)


class RowModel(TableModel):
    """Each consumed prefix picks one of a few logit rows, so scores tie often."""

    def __init__(self, rows):
        super().__init__({}, vocab_size=len(WIDE_VOCAB))
        self.rows = rows

    def decode_step(self, token, state, context):
        prefix = state[0] + (token,)
        pick = sum((i + 1) * t for i, t in enumerate(prefix)) % len(self.rows)
        return (prefix, None), np.array(self.rows[pick], dtype=np.float64).reshape(1, -1)


class TestPrunedBeamSearch:
    @given(
        rows=st.lists(st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.0, 2.0]),
                               min_size=len(WIDE_VOCAB), max_size=len(WIDE_VOCAB)),
                      min_size=1, max_size=4),
        width=st.integers(min_value=1, max_value=8),
        lambda_lm=st.sampled_from([0.0, 0.3, 1.0]),
        max_len=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_unpruned_reference_exactly(self, rows, width, lambda_lm, max_len):
        model = RowModel(rows)
        cfg = FusionConfig(lambda_lm=lambda_lm, beam_width=width, max_decode_len=max_len)
        want = reference_beam_search(model, WIDE_LM, cfg, WIDE_VOCAB)
        got = beam_search_decode(model, WIDE_LM, DUMMY_SPEC, cfg, WIDE_VOCAB)
        for field in ("tokens", "words", "log_acoustic", "log_lm", "fused", "completed"):
            assert getattr(got, field) == getattr(want, field), field

    def test_matches_the_reference_on_a_trained_model(self):
        model = tiny_model(seed=6)
        spec = np.random.default_rng(4).normal(size=(16, 5))
        for width in (1, 3, 8):
            cfg = FusionConfig(lambda_lm=0.4, beam_width=width, max_decode_len=4)
            encoded = model.encode(spec)
            fixed = SimpleNamespace(encode=lambda _: encoded, start_state=model.start_state,
                                    attend=model.attend, decode_step=model.decode_step,
                                    vocab_size=model.vocab_size)
            want = reference_beam_search(fixed, LM, cfg, VOCAB)
            got = beam_search_decode(model, LM, spec, cfg, VOCAB)
            assert (got.tokens, got.log_acoustic, got.log_lm, got.fused) == (
                want.tokens, want.log_acoustic, want.log_lm, want.fused)


    def test_bit_identical_to_the_graph_decoder(self):
        # one set of weights, at the default decoder sizes, decodes to the same tokens and
        # scores, bit for bit, as the per-step graph decoder that the array steps replaced
        enc = EncoderConfig(conv=(ConvSpec(channels=8, stride=2),), layers=1, beta=2, hidden=128)
        model = Seq2SeqModel(enc, DecoderConfig(), len(VOCAB), input_dim=5, seed=6)
        n = model.decoder_cfg.hidden

        def graph_step(token, state, context):
            next_state, logits = graph_decode_step(model, token, state, context)
            return next_state, logits.values

        for seed, width in ((4, 1), (5, 3), (6, 8)):
            spec = np.random.default_rng(seed).normal(size=(16, 5))
            cfg = FusionConfig(lambda_lm=0.4, beam_width=width, max_decode_len=4)
            encoded = graph_encode(model, spec)
            graph = SimpleNamespace(
                encode=lambda _: encoded,
                start_state=lambda: (zeros((1, n)), zeros((1, n))),
                attend=lambda s_prev, enc: graph_attend(model, s_prev, enc),
                decode_step=graph_step,
                vocab_size=model.vocab_size,
            )
            want = reference_beam_search(graph, LM, cfg, VOCAB)
            got = beam_search_decode(model, LM, spec, cfg, VOCAB)
            assert (got.tokens, got.log_acoustic, got.log_lm, got.fused) == (
                want.tokens, want.log_acoustic, want.log_lm, want.fused)


class TestTrainingUpdate:
    """One update's whole gradient vector against the per-op graph engine in the tests."""

    @given(
        convs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
                                 st.integers(1, 3)), max_size=2),
        layers=st.integers(min_value=1, max_value=3),
        beta=st.integers(min_value=2, max_value=3),
        hidden=st.integers(min_value=1, max_value=4),
        frames=st.integers(min_value=1, max_value=40),
        words=st.integers(min_value=0, max_value=4),
        p=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_graph_engine(self, convs, layers, beta, hidden, frames, words, p, seed):
        # frame counts cover final pyramid groups short of beta rows; p swaps inputs by the LM
        enc = EncoderConfig(conv=tuple(ConvSpec(*c) for c in convs), layers=layers, beta=beta,
                            hidden=hidden)
        model = Seq2SeqModel(enc, DecoderConfig(2, 3, 2), len(VOCAB), input_dim=5, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(frames, 5))
        target = [SOS] + rng.integers(4, len(VOCAB), size=words).tolist() + [EOS]
        inputs = sampled_inputs(LM, VOCAB, target, p, rng)
        loss = update_gradients(model, x, target, inputs)
        grads = model.grads.copy()
        model.grads[:] = 0.0
        logits = helpers.graph_teacher_forced(model, graph_encode(model, x), inputs)
        want_loss = helpers.softmax_cross_entropy(logits, target[1:])
        helpers.backward(want_loss)
        assert grads.any()
        if hidden > 1:  # the forward pass runs the graph's products in its order
            assert loss == want_loss.item()
        # the graph stacks a weight's per-step products last step first and sums the
        # embedding's rows densely: another summation order, so the last bits may differ
        assert np.abs(grads - model.grads).max() <= 1e-12 * np.abs(model.grads).max()


    @given(
        convs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
                                 st.integers(1, 3)), max_size=2),
        layers=st.integers(min_value=1, max_value=3),
        beta=st.integers(min_value=2, max_value=3),
        hidden=st.integers(min_value=1, max_value=4),
        frames=st.integers(min_value=1, max_value=40),
        words=st.integers(min_value=0, max_value=4),
        p=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_two_threads_match_one(self, convs, layers, beta, hidden, frames, words, p, seed):
        # one whole update, with and without the helper thread that shares Adam's blocks
        enc = EncoderConfig(conv=tuple(ConvSpec(*c) for c in convs), layers=layers, beta=beta,
                            hidden=hidden)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(frames, 5))
        target = [SOS] + rng.integers(4, len(VOCAB), size=words).tolist() + [EOS]
        inputs = sampled_inputs(LM, VOCAB, target, p, rng)
        results = []
        for on in (False, True):
            model = Seq2SeqModel(enc, DecoderConfig(2, 3, 2), len(VOCAB), input_dim=5, seed=seed)
            with helpers.helper_thread(on):
                loss = update_gradients(model, x, target, inputs)
                grads = model.grads.copy()
                clip_global_norm(model.grads, CLIP_NORM)
                optimizer = AdamState(model.values.size)
                adam_step(model.values, model.grads, optimizer, OptimizerConfig())
            results.append((loss, grads, model.values))
        (loss, grads, values), (want_loss, want_grads, want_values) = results
        assert loss == want_loss and grads.any()
        assert np.array_equal(grads, want_grads) and np.array_equal(values, want_values)

    def test_a_reverse_pass_writes_every_gradient(self):
        # stale gradients, even NaN ones, leave no trace: every entry is written, not added to
        enc = EncoderConfig(conv=(ConvSpec(3, 2, 1, 2), ConvSpec(3, 2, 2, 2)), layers=2, beta=2,
                            hidden=4)
        utt = fake_utterances()[0]
        grads = []
        for stale in (None, np.nan):
            model = Seq2SeqModel(enc, DecoderConfig(3, 4, 3), len(VOCAB), input_dim=5, seed=3)
            if stale is not None:
                model.grads[:] = stale
            update_gradients(model, utt.spectrogram, utt.target)
            grads.append(model.grads.copy())
        assert np.isfinite(grads[1]).all() and np.array_equal(grads[0], grads[1])


class TestGradOffDecoding:
    def test_decode_records_no_graph(self):
        model = tiny_model(seed=1)
        spec = np.random.default_rng(2).normal(size=(12, 5))
        best = beam_search_decode(model, LM, spec, FusionConfig(beam_width=3), VOCAB)
        for array in best.state:
            assert type(array) is np.ndarray  # a plain array holds no parents or backprop closure

    def test_training_after_a_decode_gets_the_same_gradients(self):
        utt = fake_utterances()[0]
        grads = []
        for decode_first in (True, False):
            model = tiny_model(seed=7)
            if decode_first:
                beam_search_decode(model, LM, utt.spectrogram, FusionConfig(beam_width=2), VOCAB)
            update_gradients(model, utt.spectrogram, utt.target)
            grads.append(model.grads.copy())
        assert grads[0].any() and np.array_equal(grads[0], grads[1])


class TestGraphSize:
    """`Tensor`s made, counted at `Tensor.__init__` as the benchmark's tracer counts them."""

    def count_tensors(self, monkeypatch, run):
        made = []
        init = Tensor.__init__

        def counted(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            made.append(tensor)

        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "__init__", counted)
            run()
        return len(made)

    def model(self):
        enc = EncoderConfig(conv=(ConvSpec(3, 2, 1, 2), ConvSpec(3, 2, 2, 2)), layers=2, beta=2,
                            hidden=4)
        return Seq2SeqModel(enc, DecoderConfig(3, 4, 3), len(VOCAB), input_dim=5, seed=3)

    def test_a_training_update_makes_none(self, monkeypatch):
        # the reverse passes add into the parameters' gradient views
        model, utt = self.model(), fake_utterances()[0]
        update = lambda: update_gradients(model, utt.spectrogram, utt.target)
        assert self.count_tensors(monkeypatch, update) == 0
        assert model.grads.any()

    def test_a_decode_makes_none(self, monkeypatch):
        model, utt = self.model(), fake_utterances()[1]
        cfg = FusionConfig(beam_width=3)
        decode = lambda: beam_search_decode(model, LM, utt.spectrogram, cfg, VOCAB)
        assert self.count_tensors(monkeypatch, decode) == 0
