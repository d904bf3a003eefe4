"""Spans and counters recorded around calls into the program's layers.

The benchmark patches the public functions each layer exposes, at the names
the calling modules import them under, with wrappers that time every call.
Nothing in the program changes; the patches are undone when a traced round
ends.  Spans are kept in memory as (name, tag, start_ns, end_ns, parent,
request) and written out at the end; ``tag`` is the encoding strategy of the
simulation the span ran in (empty outside one), ``parent`` the index of the
enclosing span (-1 at the top) and ``request`` the operation the span serves:
one simulated utterance or one training utterance.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import streamst.autodiff as ad
import streamst.cli as cli
import streamst.decoder as decoder
import streamst.encoding as encoding
import streamst.model as model
import streamst.segmentation as segmentation
import streamst.synthetic as synthetic
import streamst.training as training


class Recorder:
    """One workload's spans, per-(name, tag) busy time and counters."""

    def __init__(self):
        self.spans: list = []
        self.busy_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.tag = ""
        self.request = 0
        self._open: list = []
        self._patched: list = []
        self._chunks_before = 0

    def reset(self) -> None:
        """Forget what was recorded so far; the patches stay."""
        self.spans.clear()
        self.busy_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.request = 0

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        """A stand-in for fn that records a span per call; counter(args,
        result) -> (counter name, amount) adds to a counter afterwards."""
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._open[-1] if rec._open else -1
            rec._open.append(idx)
            tag = rec.tag
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                rec._open.pop()
                rec.spans[idx] = (name, tag, start, end, parent, rec.request)
                rec.busy_ns[(name, tag)] += end - start
                rec.calls[(name, tag)] += 1
            if counter is not None:
                for key, n in counter(args, result):
                    rec.counts[(key, tag)] += n
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the layers ---------------------------------------------------------

    def install(self) -> None:
        """Patch every layer boundary the workloads pass through."""
        frames = lambda a, r: [("model.vgg_forward.frames",  # noqa: E731
                                len(getattr(a[0], "data", a[0])))]
        positions = lambda a, r: [("model.encoder_forward.positions", a[0].shape[0])]  # noqa: E731
        for owner in (model, encoding):
            self.patch(owner, "vgg_forward", "model.vgg_forward", frames)
            self.patch(owner, "encoder_forward", "model.encoder_forward", positions)
        for owner in (decoder, training):
            self.patch(owner, "decode_step", "model.decode_step")
        self.patch(ad, "conv2d", "autodiff.conv2d")
        self.patch(ad, "backward", "autodiff.backward",
                   lambda a, r: [("autodiff.tape_ops", len(a[0]))])
        self.patch(training, "train", "training.train")
        self._patch_utterance_loss()
        self._patch_feed()
        for owner in (decoder, cli):
            self._patch_simulate(owner)
        reads = lambda a, r: [("segmentation.reads", len(r.boundaries))]  # noqa: E731
        self.patch(segmentation, "fixed_plan", "segmentation.plan", reads)
        for attr in ("fixed_plan", "oracle_word_plan", "random_plan"):
            self.patch(cli, attr, "segmentation.plan", reads)
        self.patch(cli, "run_sweep", "cli.run_sweep")
        self.patch(cli, "write_traces", "cli.write_traces",
                   lambda a, r: [("cli.trace_bytes", os.path.getsize(a[0]))])
        self.patch(cli, "tradeoff_table", "metrics.tradeoff_table")
        self.patch(synthetic, "generate_corpus", "synthetic.generate_corpus")
        self.patch(synthetic, "load_corpus", "synthetic.load_corpus")

    def _patch_utterance_loss(self) -> None:
        rec = self
        inner = self.wrap("training.utterance_loss", training.utterance_loss)

        def utterance_loss(*args, **kwargs):
            rec.request += 1
            return inner(*args, **kwargs)

        self._patched.append((training, "utterance_loss", training.utterance_loss))
        training.utterance_loss = utterance_loss

    def _patch_feed(self) -> None:
        def chunks(args, result):
            stream = args[0]
            fresh = stream.chunk_log[self._chunks_before:]
            return [("encoding.chunks", len(fresh)),
                    ("encoding.discarded", sum(c.discarded for c in fresh))]

        rec = self
        inner = self.wrap("encoding.feed", encoding.EncoderStream.feed, chunks)

        def feed(stream, *args, **kwargs):
            rec._chunks_before = len(stream.chunk_log)
            return inner(stream, *args, **kwargs)

        self._patched.append((encoding.EncoderStream, "feed",
                              encoding.EncoderStream.feed))
        encoding.EncoderStream.feed = feed

    def _patch_simulate(self, owner) -> None:
        """Tag everything a simulation calls with its strategy, one request
        per simulated utterance."""
        def outcome(args, trace):
            return [("decoder.tokens", len(trace.write_delays_ms)),
                    ("decoder.suppressed_eos", trace.suppressed_eos),
                    ("decoder.truncated", int(trace.truncated)),
                    ("encoding.frames_processed", trace.cost.frames_processed)]

        rec = self
        inner = self.wrap("decoder.simulate", getattr(owner, "simulate"), outcome)

        def simulate(frames, plan, policy, params, cfg, strategy, *args, **kwargs):
            outer = rec.tag
            rec.tag = strategy
            rec.request += 1
            try:
                return inner(frames, plan, policy, params, cfg, strategy,
                             *args, **kwargs)
            finally:
                rec.tag = outer

        self._patched.append((owner, "simulate", getattr(owner, "simulate")))
        owner.simulate = simulate

    # -- results ------------------------------------------------------------

    def ms(self, name: str, tag: str = "") -> float:
        return self.busy_ns.get((name, tag), 0) / 1e6

    def n_calls(self, name: str, tag: str = "") -> int:
        return self.calls.get((name, tag), 0)

    def counter(self, name: str, tag: str = "") -> int:
        return self.counts.get((name, tag), 0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, tag, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "tag": tag, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "request": request}) + "\n")


def strategy_metrics(rec: Recorder, strategy: str) -> dict:
    """Per-utterance layer figures of one strategy's simulations."""
    n = rec.n_calls("decoder.simulate", strategy)
    if n == 0:
        raise RuntimeError("no traced simulation of %s" % strategy)
    per = lambda v: v / n  # noqa: E731
    simulate_ms = rec.ms("decoder.simulate", strategy)
    feed_ms = rec.ms("encoding.feed", strategy)
    out = {
        "decoder.simulate.ms": (per(simulate_ms), "ms"),
        "decoder.write.ms": (per(simulate_ms - feed_ms), "ms"),
        "encoding.feed.ms": (per(feed_ms), "ms"),
        "model.vgg_forward.ms": (per(rec.ms("model.vgg_forward", strategy)), "ms"),
        "model.encoder_forward.ms": (per(rec.ms("model.encoder_forward", strategy)), "ms"),
        "autodiff.conv2d.ms": (per(rec.ms("autodiff.conv2d", strategy)), "ms"),
        "model.decode_step.ms": (per(rec.ms("model.decode_step", strategy)), "ms"),
        "model.vgg_forward.frames": (per(rec.counter("model.vgg_forward.frames", strategy)),
                                     "frames"),
        "model.encoder_forward.positions": (
            per(rec.counter("model.encoder_forward.positions", strategy)), "positions"),
        "autodiff.conv2d.calls": (per(rec.n_calls("autodiff.conv2d", strategy)), "calls"),
        "model.decode_step.calls": (per(rec.n_calls("model.decode_step", strategy)), "calls"),
    }
    for key, unit in (("decoder.tokens", "tokens"), ("decoder.suppressed_eos", "count"),
                      ("decoder.truncated", "count"),
                      ("encoding.frames_processed", "frames"),
                      ("encoding.chunks", "chunks"), ("encoding.discarded", "positions")):
        out[key] = (per(rec.counter(key, strategy)), unit)
    return {"%s.%s" % (key, strategy): value for key, value in out.items()}
