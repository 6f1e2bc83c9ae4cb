"""Interpolated n-gram language model over ICD description text.

Probabilities mix maximum-likelihood estimates of every order 1..n, each
weighing 1/n.  Orders whose context never occurred in training contribute
nothing; the mix is renormalized over the orders that did see the
context, so the conditional distribution stays proper.  A tiny floor
keeps every vocabulary word (and the unknown-word token) strictly
positive.

The model is one gram-count table per order.  Each context's next-word
distribution over the sorted vocabulary is built once and memoized on the
model, which never changes; `prob` reads it, `sample_next` draws from it.
An lm-v3 document stores, per order, the sorted gram counts; the order,
the weights, the vocabulary and the context totals are derived.

Sentence starts are padded with an internal start marker so that short
contexts near the beginning are still well defined.  There is no
end-of-sentence token at this level: the model scores word sequences,
and sequence termination is the decoder's concern.
"""

import bisect
import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .errors import ContractError
from .schema import from_payload, read_document, to_payload, write_document

LM_FORMAT = "lm-v3"
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


def _padded_context(history, length):
    """Last `length` history words, left-padded with the start marker."""
    if length == 0:
        return ()
    tail = tuple(history[-length:])
    return (SOS_MARKER,) * (length - len(tail)) + tail


@dataclass
class InterpolatedLM:
    grams: list  # grams[k-1]: {(context..., word): count}
    # derived from the counts; never saved or compared
    totals: list = field(init=False, repr=False, compare=False)  # totals[k-1]: {context: count}
    vocabulary: frozenset = field(init=False, repr=False, compare=False)  # unigram words, <unk>
    words: list = field(init=False, repr=False, compare=False)  # sorted vocabulary
    # memos per Markov window (and word tuple): valid since an LM never changes
    _dist: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _next: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.totals = [{} for _ in self.grams]
        for table, totals in zip(self.grams, self.totals):
            for gram, count in table.items():
                totals[gram[:-1]] = totals.get(gram[:-1], 0) + count
        self.vocabulary = frozenset(word for (word,) in self.grams[0]) | {UNK_WORD}
        self.words = sorted(self.vocabulary)

    @property
    def max_order(self):
        return len(self.grams)


# far above the longest bundled description (6 words); every order costs a pass per word
MAX_ORDER = 16


def train_lm(corpus, max_order):
    if not 1 <= max_order <= MAX_ORDER:
        raise ContractError(f"max order must lie in 1..{MAX_ORDER}, got {max_order}")
    if not corpus.sentences:
        raise ContractError("cannot train a language model on an empty corpus")
    grams = [{} for _ in range(max_order)]
    for sentence in corpus.sentences:
        for i, word in enumerate(sentence):
            for k, table in enumerate(grams):
                key = _padded_context(sentence[:i], k) + (word,)
                table[key] = table.get(key, 0) + 1
    return InterpolatedLM(grams)


def _distribution(lm, history):
    """Read-only vector of the next-word probabilities over `lm.words` after `history`."""
    window = _padded_context(list(history), lm.max_order - 1)
    vector = lm._dist.get(window)
    if vector is None:
        counts = np.array([lm.grams[0].get((w,), 0) for w in lm.words])
        unigram = (counts / lm.totals[0][()] + _FLOOR) / (1.0 + _FLOOR * len(lm.vocabulary))
        weight = 1.0 / lm.max_order  # of each order
        seen, mass = weight, weight * unigram
        for k in range(2, lm.max_order + 1):
            context = window[-(k - 1):]
            total = lm.totals[k - 1].get(context)
            if total is not None:  # orders that never saw the context give up their weight
                counts = np.array([lm.grams[k - 1].get(context + (w,), 0) for w in lm.words])
                seen += weight
                mass += weight * (counts / total)
        vector = mass / seen
        vector.flags.writeable = False
        lm._dist[window] = vector
    return vector


def prob(lm, word, history):
    """Interpolated conditional probability of `word` after `history`.

    Only the last max_order-1 history words matter.  Words outside the
    vocabulary are scored as the unknown-word token.
    """
    if word not in lm.vocabulary:
        word = UNK_WORD
    return float(_distribution(lm, history)[bisect.bisect_left(lm.words, word)])


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

    The running sum goes over the sorted vocabulary, so identical rng
    states give identical draws.
    """
    cumulative = np.cumsum(_distribution(lm, history))
    index = np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right")
    return lm.words[min(index, len(lm.words) - 1)]


@dataclass
class _LmDocument:
    """The lm-v3 payload: `counts[k-1]` holds the sorted [gram words, count] pairs of order k."""

    counts: list[list[tuple[list[str], int]]]

    def __post_init__(self):
        if len(self.counts) > MAX_ORDER:  # each order costs a pass per word, as in `train_lm`
            raise ContractError(f"{len(self.counts)} orders exceed the largest, {MAX_ORDER}")
        for k, pairs in enumerate(self.counts, start=1):
            if any(c < 1 or len(gram) != k for gram, c in pairs):
                raise ContractError(f"order {k} holds a gram of another length or a count below 1")
            misplaced = next((b for (a, _), (b, _) in pairwise(pairs) if b <= a), None)
            if misplaced is not None:  # `save_lm` writes each gram once, in sorted order
                raise ContractError(f"order {k} lists {misplaced!r:.60} "
                                    "twice or out of sorted order")
        # `train_lm` counts each corpus word once in every order
        words = [sum(c for _, c in pairs) for pairs in self.counts]
        if len(set(words)) != 1 or words[0] < 1:
            raise ContractError(f"the orders count {words} words, not one positive number")
        known = {word for (word,), _ in self.counts[0]}  # the words a next-word vector covers
        for k, pairs in enumerate(self.counts[1:], start=2):
            stray = next((gram[-1] for gram, _ in pairs if gram[-1] not in known), None)
            if stray is not None:
                raise ContractError(f"order {k} predicts {stray!r:.40}, which order 1 never counts")


def save_lm(lm, path):
    """Serialize to the versioned lm-v3 structured-text format."""
    counts = [[(list(gram), c) for gram, c in sorted(table.items())] for table in lm.grams]
    write_document(path, LM_FORMAT, to_payload(_LmDocument(counts)))


def load_lm(path):
    return read_document(path, LM_FORMAT, _lm_from_payload)


def _lm_from_payload(payload):
    doc = from_payload(_LmDocument, payload)
    return InterpolatedLM([{tuple(gram): c for gram, c in pairs} for pairs in doc.counts])
