"""Language-model fusion: sampling-augmented training and fused decoding.

Training is teacher forcing with a twist: at each decoder step past the
start marker, with a per-epoch probability the input token is swapped
for one sampled from the language model conditioned on the ground-truth
prefix.  Targets never change, and the language model itself is never
updated.  The swap probability ramps linearly from zero to its maximum
over the first part of training.

Decoding ranks hypotheses by a normalized convex combination of the
acoustic and language-model log probabilities, divided by emitted token
count so short hypotheses hold no advantage.  Beam search keeps the top
candidates among completed hypotheses and every one-token extension of
the active ones, which makes width 1 coincide with greedy decoding.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    adam_step,
    backward,
    clip_global_norm,
    log_softmax_values,
    softmax_cross_entropy,
)
from .data import EOS, PAD, SOS
from .errors import ConfigError, ContractError, ValidationError
from .lm import prob as lm_prob
from .lm import sample_next
from .model import standardize_spectrogram
from .seeds import stable_seed


@dataclass
class FusionConfig:
    lambda_acoustic: float = 1.0
    lambda_lm: float = 0.3
    beam_width: int = 4
    max_decode_len: int = 16
    lm_sample_max: float = 0.25
    ramp_frac: float = 0.5

    def __post_init__(self):
        if self.lambda_acoustic < 0 or self.lambda_lm < 0:
            raise ConfigError("mixing weights must be nonnegative")
        if self.lambda_acoustic + self.lambda_lm <= 0:
            raise ConfigError("at least one mixing weight must be positive")
        if not 0.0 <= self.lm_sample_max <= 1.0:
            raise ConfigError(f"sampling probability {self.lm_sample_max} outside [0, 1]")
        if not 0.0 <= self.ramp_frac <= 1.0:
            raise ConfigError(f"ramp fraction {self.ramp_frac} outside [0, 1]")
        if self.beam_width < 1:
            raise ConfigError(f"beam width must be at least 1, got {self.beam_width}")


@dataclass
class Hypothesis:
    tokens: tuple
    words: tuple
    log_acoustic: float
    log_lm: float
    fused: float
    state: object
    completed: bool

    @property
    def steps(self):
        return max(1, len(self.tokens) - 1)


def fused_score(log_acoustic, log_lm, cfg):
    """Normalized mix of the two log posteriors; higher is better."""
    total = cfg.lambda_acoustic + cfg.lambda_lm
    if total <= 0:
        raise ConfigError("at least one mixing weight must be positive")
    return (cfg.lambda_acoustic * log_acoustic + cfg.lambda_lm * log_lm) / total


def lm_sample_probability(cfg, epoch, total_epochs):
    """Per-epoch swap probability: linear ramp, then constant."""
    if total_epochs < 1:
        raise ContractError(f"total epochs must be positive, got {total_epochs}")
    ramp_epochs = int(round(total_epochs * cfg.ramp_frac))
    if ramp_epochs <= 0:
        return cfg.lm_sample_max
    return cfg.lm_sample_max * min(1.0, epoch / ramp_epochs)


def sampled_inputs(lm, vocab, target, p, rng):
    """Decoder input ids with LM-sampled swaps; the start token is kept.

    Position i conditions the sample on the ground-truth words before
    position i, so every step draws independently of earlier swaps.
    """
    words = vocab.decode(target)
    inputs = list(target[:-1])
    for i in range(1, len(inputs)):
        if rng.random() < p:
            sampled = sample_next(lm, words[: i - 1], rng)
            inputs[i] = vocab.id_of(sampled)
    return inputs


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    lm_sample_p: float


def check_vocabulary_alignment(lm, vocab):
    missing = [w for w in vocab.content_words if w not in lm.vocabulary]
    if missing:
        raise ValidationError(f"words absent from the language model corpus: {missing}")


def train_with_scheduled_lm_sampling(
    model, lm, vocab, utterances, cfg, epochs, optimizer, seed=0, clip_norm=5.0,
    start_epoch=0, on_epoch=None,
):
    """Train the acoustic model; returns per-epoch statistics.

    `utterances` are visited in the given order each epoch.  The language
    model only generates input-token swaps; its tables are never touched.
    `start_epoch` resumes a run mid-schedule: epochs before it are skipped
    but the sampling ramp still spans the full `epochs` horizon.
    """
    if not utterances:
        raise ContractError("cannot train on an empty utterance list")
    if not 0 <= start_epoch <= epochs:
        raise ContractError(f"start epoch {start_epoch} outside [0, {epochs}]")
    check_vocabulary_alignment(lm, vocab)
    features = [standardize_spectrogram(u.spectrogram.values) for u in utterances]
    params = model.parameters()
    log = []
    for epoch in range(start_epoch, epochs):
        p = lm_sample_probability(cfg, epoch, epochs)
        total = 0.0
        for index, utt in enumerate(utterances):
            rng = np.random.default_rng(stable_seed("lm-swap", seed, epoch, index))
            inputs = sampled_inputs(lm, vocab, utt.target, p, rng)
            logits = model.forward_teacher_forced(features[index], utt.target, input_tokens=inputs)
            loss = softmax_cross_entropy(logits, utt.target[1:])
            backward(loss)
            norm = clip_global_norm(params, clip_norm)
            if not math.isfinite(norm):
                raise ValidationError(f"epoch {epoch}, utterance {index}: loss {loss.item()}, "
                                      f"gradient norm {norm}; no parameter was updated")
            adam_step(params, optimizer)
            total += loss.item()
        stats = EpochStats(epoch=epoch, mean_loss=total / len(utterances), lm_sample_p=p)
        log.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    return log


def _step_logprobs(model, hyp, encoded):
    _, context = model.attend(hyp.state[0], encoded)
    state, logits = model.decode_step(hyp.tokens[-1], hyp.state, context)
    logp = log_softmax_values(logits.values)[0]
    return state, logp


def _expand(model, lm, hyp, encoded, cfg, vocab):
    """All admissible one-token children of an active hypothesis."""
    state, logp = _step_logprobs(model, hyp, encoded)
    children = []
    for token in range(model.decoder_cfg.vocab_size):
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
        children.append(
            Hypothesis(
                tokens=hyp.tokens + (token,),
                words=words,
                log_acoustic=log_a,
                log_lm=log_l,
                fused=fused_score(log_a, log_l, cfg),
                state=state,
                completed=done,
            )
        )
    return children


def _ranked(hyp):
    return hyp.fused / hyp.steps


def _take_best(candidates, width):
    return sorted(candidates, key=lambda h: (-_ranked(h), h.tokens))[:width]


def beam_search_decode(model, lm, x, cfg, vocab):
    """Best complete hypothesis under the fused, length-normalized score."""
    if cfg.lambda_lm > 0 and lm is None:
        raise ContractError("a language model is required when its mixing weight is positive")
    features = standardize_spectrogram(getattr(x, "values", x))
    encoded = model.encode(features)
    beam = [Hypothesis((SOS,), (), 0.0, 0.0, 0.0, model.start_state(), completed=False)]
    while True:
        active = [h for h in beam if not h.completed]
        if not active:
            break
        candidates = [h for h in beam if h.completed]
        for hyp in active:
            candidates.extend(_expand(model, lm, hyp, encoded, cfg, vocab))
        beam = _take_best(candidates, cfg.beam_width)
    return _take_best(beam, 1)[0]


def greedy_decode(model, lm, x, cfg, vocab):
    """Follow the best-scoring child at every step: beam search at width 1."""
    return beam_search_decode(model, lm, x, replace(cfg, beam_width=1), vocab)


def transcribe(model, lm, x, cfg, vocab):
    """Decode to words; specials are stripped, so output may be empty."""
    best = beam_search_decode(model, lm, x, cfg, vocab)
    return vocab.decode(best.tokens)
