"""In-memory span tracer for the traced benchmark passes.

Each function named in ``run.LAYER_NAMES`` is replaced, for the length
of one pass, by a wrapper that records a span: name, start, end, parent
span and the utterance being processed.  icdscribe modules import
functions by name (``fusion.lm_prob`` is ``lm.prob``,
``cli.load_checkpoint`` is ``checkpoint.load_checkpoint``), so a function
is wrapped at every module attribute that holds it, not only in its home
module.  Methods are wrapped on their class.  Spans stay in memory until
the pass ends.

Self time is a span's duration minus the time covered by its child spans.
"""

import importlib
import json
import os
import sys
import time

from icdscribe import autodiff, data
from run import LAYER_NAMES


def _owner(name):
    """The object holding a layer function: its module, or Seq2SeqModel for methods."""
    module_name, attr = name.split(".")
    module = importlib.import_module(f"icdscribe.{module_name}")
    return (module.Seq2SeqModel if module_name == "model" else module), attr


LAYERS = tuple((name, *_owner(name)) for name in LAYER_NAMES)  # name, owner, attribute
DECODERS = ("fusion.beam_search_decode", "fusion.greedy_decode")


class Tracer:
    """Wraps the layer functions while installed; use as a context manager."""

    def __init__(self):
        self.utt = None  # utterance index the caller is working on, or None
        self.spans = []  # (id, name, start, end, parent id, utt, self seconds)
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in LAYERS}  # calls, self s, total s
        self.in_decode = {name: 0 for name, _, _ in LAYERS}  # calls made while decoding
        self.tensors = {"decode": 0, "other": 0}
        self.synth_keys = set()
        self.room_conv_macs = 0
        self.decodes = 0
        self.decoded_tokens = 0
        self.maxlen_stops = 0
        self.checkpoint_bytes = 0
        self._observers = {
            "audio.synthesize_word": self._saw_synthesis,
            "audio.apply_far_field": self._saw_far_field,
            "fusion.beam_search_decode": self._saw_decode,
            "fusion.greedy_decode": self._saw_decode,
            "checkpoint.save_checkpoint": self._saw_checkpoint,
            "checkpoint.load_checkpoint": self._saw_checkpoint,
        }
        self._stack = []  # [span id, seconds covered by children]
        self._decoding = 0
        self._patches = []

    # ------------------------------------------------------------ install

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "icdscribe"]
        for name, owner, attr in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(autodiff.Tensor, "__init__", self._counted_init(autodiff.Tensor.__init__))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        observe = self._observers.get(name)
        decoder = name in DECODERS
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            if self._decoding:
                self.in_decode[name] += 1
            if decoder:
                self._decoding += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if decoder:
                    self._decoding -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                stats[0] += 1
                stats[1] += own
                stats[2] += duration
                spans.append((span_id, name, start, end, parent, self.utt, own))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted_init(self, init):
        def counted(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            self.tensors["decode" if self._decoding else "other"] += 1

        return counted

    # ----------------------------------------------------------- counters

    def _saw_synthesis(self, args, result):
        word, profile, repeat_index = args[:3]
        self.synth_keys.add((word, profile.speaker_id, repeat_index))

    def _saw_far_field(self, args, result):
        waveform, room = args[:2]
        taps = int(room.rt60 * waveform.sample_rate) + 1 if room.rt60 > 0 else 1
        self.room_conv_macs += len(waveform.samples) * taps

    def _saw_decode(self, args, result):
        self.decodes += 1
        self.decoded_tokens += len(result.tokens) - 1  # everything after <sos>
        self.maxlen_stops += result.tokens[-1] != data.EOS

    def _saw_checkpoint(self, args, result):
        self.checkpoint_bytes = os.path.getsize(args[0])

    # ------------------------------------------------------------ results

    def accounted_seconds(self, utterances):
        """Summed self time of the spans that ended while utterance 0..n-1 ran."""
        return sum(s[6] for s in self.spans if s[5] is not None and 0 <= s[5] < utterances)

    def summary(self):
        return {
            "stats": self.stats,
            "in_decode": self.in_decode,
            "tensors": self.tensors,
            "synth_unique": len(self.synth_keys),
            "room_conv_macs": self.room_conv_macs,
            "decodes": self.decodes,
            "decoded_tokens": self.decoded_tokens,
            "maxlen_stops": self.maxlen_stops,
            "checkpoint_bytes": self.checkpoint_bytes,
        }

    def write_spans(self, path, header, origin):
        """A JSON header line, then [id, name, start, end, parent, utt, self] per span.

        Times are seconds from `origin`.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, utt, own in sorted(self.spans):
                row = [span_id, name, start - origin, end - origin, parent, utt, own]
                fh.write(json.dumps(row) + "\n")
