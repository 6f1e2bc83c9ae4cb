"""Interpolated n-gram language model over ICD description text.

Probabilities mix maximum-likelihood estimates of every order 1..n with
nonnegative weights summing to one.  Orders whose context never occurred
in training contribute nothing; their weight is redistributed
proportionally across the orders that did see the context, so the
conditional distribution stays proper.  A tiny floor keeps every
vocabulary word (and the unknown-word token) strictly positive.

Sentence starts are padded with an internal start marker so that short
contexts near the beginning are still well defined.  There is no
end-of-sentence token at this level: the model scores word sequences,
and sequence termination is the decoder's concern.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError
from .schema import from_payload, read_document, to_payload, write_document

LM_FORMAT = "lm-v1"
SOS_MARKER = "<sos>"
UNK_WORD = "<unk>"

# floor added to unigram probabilities before renormalization
_FLOOR = 1e-10

_STRIP_CHARS = str.maketrans({",": " ", ";": " ", "-": " ", "–": " ", "—": " "})


def normalize_line(text):
    """Lowercase and split, with commas, dashes and semicolons removed."""
    return text.translate(_STRIP_CHARS).lower().split()


@dataclass
class Corpus:
    sentences: list

    @classmethod
    def from_lines(cls, lines):
        sentences = [words for words in (normalize_line(ln) for ln in lines) if words]
        return cls(sentences)

    @property
    def unique_words(self):
        return len({w for s in self.sentences for w in s})


@dataclass
class NGramCounts:
    """Per-order gram counts plus totals for each distinct context."""

    max_order: int
    grams: list = field(default_factory=list)  # grams[k-1]: {(context..., word): count}
    context_totals: list = field(default_factory=list)  # context_totals[k-1]: {context: count}

    @classmethod
    def from_corpus(cls, corpus, max_order):
        grams = [{} for _ in range(max_order)]
        totals = [{} for _ in range(max_order)]
        for sentence in corpus.sentences:
            for i, word in enumerate(sentence):
                for k in range(1, max_order + 1):
                    context = _padded_context(sentence[:i], k - 1)
                    key = context + (word,)
                    grams[k - 1][key] = grams[k - 1].get(key, 0) + 1
                    totals[k - 1][context] = totals[k - 1].get(context, 0) + 1
        return cls(max_order, grams, totals)


def _padded_context(history, length):
    """Last `length` history words, left-padded with the start marker."""
    if length == 0:
        return ()
    tail = tuple(history[-length:])
    return (SOS_MARKER,) * (length - len(tail)) + tail


@dataclass
class InterpolatedLM:
    max_order: int
    counts: NGramCounts
    lambdas: list
    vocabulary: frozenset
    # next_logprobs memo per (words, context): valid since an LM never changes; not saved
    _next: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lambdas) != self.max_order:
            raise ContractError(
                f"{self.max_order} orders need {self.max_order} weights, got {len(self.lambdas)}"
            )
        if any(lam < 0 for lam in self.lambdas):
            raise ContractError("interpolation weights must be nonnegative")
        if abs(sum(self.lambdas) - 1.0) > 1e-12:
            raise ContractError(f"interpolation weights sum to {sum(self.lambdas)}, expected 1")


def train_lm(corpus, max_order, lambdas=None):
    if max_order < 1:
        raise ContractError(f"max order must be at least 1, got {max_order}")
    if not corpus.sentences:
        raise ContractError("cannot train a language model on an empty corpus")
    if lambdas is None:
        lambdas = [1.0 / max_order] * max_order
    counts = NGramCounts.from_corpus(corpus, max_order)
    vocab = frozenset(w for s in corpus.sentences for w in s) | {UNK_WORD}
    return InterpolatedLM(max_order, counts, list(lambdas), vocab)


def _floored_unigram(lm, word):
    total = lm.counts.context_totals[0][()]
    count = lm.counts.grams[0].get((word,), 0)
    return (count / total + _FLOOR) / (1.0 + _FLOOR * len(lm.vocabulary))


def prob(lm, word, history):
    """Interpolated conditional probability of `word` after `history`.

    Only the last max_order-1 history words matter.  Words outside the
    vocabulary are scored as the unknown-word token.
    """
    if word not in lm.vocabulary:
        word = UNK_WORD
    history = list(history)[-(lm.max_order - 1):] if lm.max_order > 1 else []

    estimates = []  # (lambda_k, p_k) for orders whose context was seen
    for k in range(1, lm.max_order + 1):
        if k == 1:
            estimates.append((lm.lambdas[0], _floored_unigram(lm, word)))
            continue
        context = _padded_context(history, k - 1)
        total = lm.counts.context_totals[k - 1].get(context)
        if total is None:
            continue
        count = lm.counts.grams[k - 1].get(context + (word,), 0)
        estimates.append((lm.lambdas[k - 1], count / total))

    weight = sum(lam for lam, _ in estimates)
    if weight <= 0.0:
        # every weighted order missed its context; fall back to the unigram
        return _floored_unigram(lm, word)
    return sum(lam * p for lam, p in estimates) / weight


def next_logprobs(lm, words, history):
    """Read-only float64 vector of math.log(prob(lm, w, history)) for each w in `words`.

    Only the last max_order-1 history words matter, so the vector is
    memoized on the LM per (words, those history words).
    """
    context = tuple(history)[-(lm.max_order - 1):] if lm.max_order > 1 else ()
    key = (tuple(words), context)
    vector = lm._next.get(key)
    if vector is None:
        vector = np.array([math.log(prob(lm, w, context)) for w in key[0]])
        vector.flags.writeable = False
        lm._next[key] = vector
    return vector


def sentence_logprob(lm, sentence):
    """Log probability of a word sequence under the chain rule."""
    words = list(sentence)
    if not words:
        raise ContractError("cannot score an empty sentence")
    return sum(math.log(prob(lm, w, words[:i])) for i, w in enumerate(words))


def perplexity(lm, sentences):
    """exp of the mean negative log probability per word."""
    total_logprob = 0.0
    total_words = 0
    for sentence in sentences:
        total_logprob += sentence_logprob(lm, sentence)
        total_words += len(sentence)
    if total_words == 0:
        raise ContractError("perplexity needs at least one word")
    return math.exp(-total_logprob / total_words)


def sample_next(lm, history, rng):
    """Draw the next word from the conditional distribution.

    Iterates the vocabulary in sorted order so identical rng states give
    identical draws.
    """
    words = sorted(lm.vocabulary)
    probs = [prob(lm, w, history) for w in words]
    mass = sum(probs)
    threshold = rng.random() * mass
    cumulative = 0.0
    for w, p in zip(words, probs):
        cumulative += p
        if threshold < cumulative:
            return w
    return words[-1]


@dataclass
class _OrderCounts:
    order: int
    counts: list[tuple[list[str], int]]  # [gram words, count], grams sorted


@dataclass
class _LmDocument:
    """The lm-v1 payload: counts per order, from which context totals are rebuilt."""

    max_order: int
    lambdas: list[float]
    vocabulary: list[str]
    orders: list[_OrderCounts]


def save_lm(lm, path):
    """Serialize to the versioned lm-v1 structured-text format."""
    orders = [
        _OrderCounts(k, [(list(gram), c) for gram, c in sorted(lm.counts.grams[k - 1].items())])
        for k in range(1, lm.max_order + 1)
    ]
    document = _LmDocument(lm.max_order, lm.lambdas, sorted(lm.vocabulary), orders)
    write_document(path, LM_FORMAT, to_payload(document))


def load_lm(path):
    return read_document(path, LM_FORMAT, _lm_from_payload)


def _lm_from_payload(payload):
    doc = from_payload(_LmDocument, payload)
    grams = [{} for _ in range(doc.max_order)]
    totals = [{} for _ in range(doc.max_order)]
    for block in doc.orders:
        if not 1 <= block.order <= doc.max_order or any(c < 1 for _, c in block.counts):
            raise ConfigError(f"order {block.order} outside 1..{doc.max_order}, or a count below 1")
        k = block.order - 1
        for gram, count in block.counts:
            grams[k][tuple(gram)] = count
            totals[k][tuple(gram[:-1])] = totals[k].get(tuple(gram[:-1]), 0) + count
    counts = NGramCounts(doc.max_order, grams, totals)
    lm = InterpolatedLM(doc.max_order, counts, doc.lambdas, frozenset(doc.vocabulary))
    if () not in totals[0]:
        raise ConfigError("the model holds no unigram counts")
    return lm
