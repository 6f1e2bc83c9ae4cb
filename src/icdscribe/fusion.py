"""Language-model fusion: sampling-augmented training, fused decoding and its scoring.

Training is teacher forcing with a twist: at each decoder step past the
start marker, with a per-epoch probability the input token is swapped
for one sampled from the language model conditioned on the ground-truth
prefix.  Targets never change, and the language model itself is never
updated.  The swap probability ramps linearly from zero to its maximum
over the first part of training.  Each utterance makes one update: the
model's forward pass over its spectrogram, taken as the featurizer made
it, `backward` (the loss, then the model's reverse sweep, which writes its
whole gradient vector on the calling thread), global-norm clipping and an
Adam step, whose blocks share two threads (`autodiff.run_shared`).

Decoding ranks hypotheses by the shallow-fusion score
`(log_acoustic + lambda_lm * log_lm) / (1 + lambda_lm)`, divided by the
emitted token count so short hypotheses hold no advantage.  Beam search
keeps the top candidates among completed hypotheses and every one-token
extension of the active ones, which makes width 1 coincide with greedy
decoding.  Only each active hypothesis's best `beam_width` extensions are
built, since no other can enter the beam; all tokens are scored in one
vector expression, with the LM's memoized next-word vector.
`evaluate_dataset` transcribes utterances and scores them, naming each one
in the report; the training log's WER is its corpus WER at beam width 1.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import adam_step, backward, clip_global_norm, log_softmax_values
from .data import EOS, PAD, SOS
from .errors import ContractError
from .lm import next_logprobs, sample_next
from .metrics import EvalReport, build_report
from .schema import INF_AS_NULL, check_bounds, check_within, to_payload, within
from .seeds import stable_seed


@dataclass
class FusionConfig:
    # a decode expands up to beam_width hypotheses a step for up to max_decode_len steps
    lambda_lm: float = field(default=0.3, metadata=within(0.0))
    beam_width: int = field(default=4, metadata=within(1, 64))
    max_decode_len: int = field(default=16, metadata=within(1, 256))
    lm_sample_max: float = field(default=0.25, metadata=within(0.0, 1.0))
    ramp_frac: float = field(default=0.5, metadata=within(0.0, 1.0))

    __post_init__ = check_bounds


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
    """Normalized mix of the two log posteriors, the acoustic one weighing 1; higher is better."""
    return (log_acoustic + cfg.lambda_lm * log_lm) / (1.0 + cfg.lambda_lm)


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
class EpochRecord:
    """One line of the training log; `wer` is inf (null) on epochs that do not measure it."""

    epoch: int
    loss: float  # mean over the epoch's utterances
    lm_sample_p: float
    wer: float = field(default=math.inf, metadata=INF_AS_NULL)

    def line(self):
        return json.dumps(to_payload(self), sort_keys=True) + "\n"


def check_vocabulary_alignment(lm, vocab):
    missing = [w for w in vocab.content_words if w not in lm.vocabulary]
    if missing:
        raise ContractError(f"words absent from the language model corpus: {missing}")


def train_with_scheduled_lm_sampling(model, lm, vocab, utterances, config, optimizer,
                                     start_epoch=0):
    """Train the acoustic model, yielding each epoch's `EpochRecord` as that epoch ends.

    The loop reads its settings from the run config `config`: `fusion`,
    `training.epochs`, `training.clip_norm`, `seed` and `optimizer`.
    `utterances` are visited in the given order each epoch.  The language
    model only generates input-token swaps; its tables are never touched.
    `start_epoch` resumes a run mid-schedule: epochs before it are skipped
    but the sampling ramp still spans the full `epochs` horizon.  Nothing,
    the argument checks included, runs before the first record is asked for.
    """
    epochs = config.training.epochs
    if not utterances:
        raise ContractError("cannot train on an empty utterance list")
    if not 0 <= start_epoch <= epochs:
        raise ContractError(f"start epoch {start_epoch} outside [0, {epochs}]")
    check_vocabulary_alignment(lm, vocab)
    for epoch in range(start_epoch, epochs):
        p = lm_sample_probability(config.fusion, epoch, epochs)
        total = 0.0
        for index, utt in enumerate(utterances):
            rng = np.random.default_rng(stable_seed("lm-swap", config.seed, epoch, index))
            inputs = sampled_inputs(lm, vocab, utt.target, p, rng)
            logits, sweep = model.forward_teacher_forced(utt.spectrogram, utt.target,
                                                         input_tokens=inputs)
            loss = backward(logits, utt.target[1:], sweep)
            norm = clip_global_norm(model.grads, config.training.clip_norm)
            if not math.isfinite(norm):
                raise ContractError(f"epoch {epoch}, utterance {index}: loss {loss}, "
                                    f"gradient norm {norm}; no parameter was updated")
            adam_step(model.values, model.grads, optimizer, config.optimizer)
            total += loss
        yield EpochRecord(epoch, total / len(utterances), p)


def _expand(model, lm, hyp, encoded, cfg, vocab, tokens, words):
    """The best `beam_width` children of an active hypothesis, over ascending `tokens`.

    `words` are the words of the tokens other than EOS.  Children share a
    length, so one that trails `beam_width` siblings can never enter the beam.
    """
    _, context = model.attend(hyp.state[0], encoded)
    state, logits = model.decode_step(hyp.tokens[-1], hyp.state, context)
    log_a = hyp.log_acoustic + log_softmax_values(logits)[0][tokens]
    log_l = np.full(len(tokens), hyp.log_lm)
    if cfg.lambda_lm > 0:
        log_l[tokens != EOS] += next_logprobs(lm, words, hyp.words)
    fused = fused_score(log_a, log_l, cfg)
    children = []
    # each child's steps are len(hyp.tokens); a stable sort breaks ties by token id
    for i in np.argsort(-(fused / len(hyp.tokens)), kind="stable")[: cfg.beam_width]:
        token = int(tokens[i])
        children.append(
            Hypothesis(
                tokens=hyp.tokens + (token,),
                words=hyp.words if token == EOS else hyp.words + (vocab.word_of(token),),
                log_acoustic=float(log_a[i]),
                log_lm=float(log_l[i]),
                fused=float(fused[i]),
                state=state,
                completed=token == EOS or len(hyp.tokens) >= cfg.max_decode_len,
            )
        )
    return children


def _take_best(candidates, width):
    return sorted(candidates, key=lambda h: (-(h.fused / h.steps), h.tokens))[:width]


def beam_search_decode(model, lm, x, cfg, vocab):
    """Best complete hypothesis under the fused, length-normalized score."""
    if cfg.lambda_lm > 0 and lm is None:
        raise ContractError("a language model is required when its mixing weight is positive")
    tokens = np.array([t for t in range(model.vocab_size) if t not in (PAD, SOS)])
    words = tuple(vocab.word_of(t) for t in tokens if t != EOS)
    encoded = model.encode(x)
    beam = [Hypothesis((SOS,), (), 0.0, 0.0, 0.0, model.start_state(), completed=False)]
    while True:
        active = [h for h in beam if not h.completed]
        if not active:
            break
        candidates = [h for h in beam if h.completed]
        for hyp in active:
            candidates.extend(_expand(model, lm, hyp, encoded, cfg, vocab, tokens, words))
        beam = _take_best(candidates, cfg.beam_width)
    return _take_best(beam, 1)[0]


def greedy_decode(model, lm, x, cfg, vocab):
    """Follow the best-scoring child at every step: beam search at width 1."""
    return beam_search_decode(model, lm, x, replace(cfg, beam_width=1), vocab)


def transcribe(model, lm, x, cfg, vocab):
    """Decode to words; specials are stripped, so output may be empty."""
    best = beam_search_decode(model, lm, x, cfg, vocab)
    return vocab.decode(best.tokens)


def evaluate_dataset(model, lm, utterances, cfg, vocab, seed, resamples):
    """Transcribe each utterance in turn and score the results; `utterances` may be lazy."""
    check_within(EvalReport, "resamples", resamples)  # refused before anything is decoded
    check_within(EvalReport, "seed", seed)
    scored = [(f"{utt.code}/{utt.speaker_id}/{utt.variation_index}", vocab.decode(utt.target),
               transcribe(model, lm, utt.spectrogram, cfg, vocab)) for utt in utterances]
    return build_report(scored, seed=seed, resamples=resamples,
                        lambda_lm=cfg.lambda_lm, beam_width=cfg.beam_width)
