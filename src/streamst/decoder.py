"""Online decoding: interleave reads from a segmentation plan with greedy
writes, and record the timing trace.

The controller reads frames up to each plan boundary, then lets the decoder
emit up to a fixed number of tokens before the next read.  An end-of-sequence
proposed while input remains is suppressed rather than committed: the decoder
state is left untouched and reading resumes.  After the final read the
decoder runs until it produces end-of-sequence or hits the length cap.
Offline translation is the same loop with a single read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encoding import EncodeCost, EncoderStream
from .errors import (ConfigError, ContractError, InsufficientFramesError, parse_json, read_text,
                     typed_field)
from .model import (BOS_ID, EOS_ID, NUM_SPECIALS, ModelConfig, Parameters, Vocab,
                    decode_step, init_decoder_state)
from .segmentation import SegmentationPlan

# Every time in ms is a frame count times FRAME_MS.  The synthetic corpus has
# no clock of its own, so a frame lasts the 10 ms hop of speech features.
FRAME_MS = 10.0

_SPECIAL_TEXT = {0: "<pad>", 1: "<bos>", 2: "<eos>"}


@dataclass
class DecodePolicy:
    """Write-side knobs; the read side lives in the segmentation plan."""

    write_tokens: int = 1        # tokens allowed per write phase
    max_target_factor: float = 3.0  # length cap as a multiple of encoder positions
    max_target_slack: int = 10   # constant headroom on top of the cap

    def __post_init__(self):
        if self.write_tokens < 1:
            raise ConfigError("write_tokens must be at least 1, got %r" % (self.write_tokens,))

    def cap(self, positions: int) -> int:
        return int(self.max_target_factor * positions) + self.max_target_slack


@dataclass(slots=True)
class DecodeTrace:
    """Everything observable about one simulated utterance, as simulate
    returns it and as read_traces reads it back."""

    utt_id: str
    hypothesis: str
    reads: tuple          # the plan's boundaries: frames read so far after each read
    tokens: list          # text of each written token, specials included
    delays_ms: list       # when each token was written, from utterance start
    cost: EncodeCost
    truncated: bool = False
    suppressed_eos: int = 0

    write_delays_ms = property(lambda self: self.delays_ms)  # the name perfbench/tracing.py reads

    @property
    def duration_ms(self) -> float:
        return self.reads[-1] * FRAME_MS


def _token_text(vocab: Vocab, token: int) -> str:
    if token < NUM_SPECIALS:
        return _SPECIAL_TEXT[token]
    return vocab.decode([token])


def simulate(frames: np.ndarray, plan: SegmentationPlan, policy: DecodePolicy,
             params: Parameters, cfg: ModelConfig, strategy: str) -> DecodeTrace:
    """Run the full read/write loop for one utterance and return its trace.

    After each read the decoder writes greedily over the current encoder
    outputs.  A read with input still to come may write policy.write_tokens
    tokens; an end-of-sequence it proposes is counted as suppressed and left
    uncommitted.  The final read writes until end-of-sequence or the length
    cap, and reaching the cap there marks the trace truncated.
    """
    frames = np.asarray(frames, dtype=np.float32)
    if len(frames) != plan.total_frames:
        raise ConfigError("plan covers %d frames, utterance has %d"
                          % (plan.total_frames, len(frames)))
    vocab = Vocab(cfg.vocab)
    stream = EncoderStream(strategy, params, cfg)
    state = init_decoder_state(cfg)
    prev = BOS_ID
    out_ids: list = []
    tokens: list = []
    delays: list = []
    suppressed = 0
    truncated = False
    consumed = 0
    n_bounds = len(plan.boundaries)
    for idx, bound in enumerate(plan.boundaries):
        is_last = idx == n_bounds - 1
        stream.feed(frames[consumed:bound], is_last=is_last)
        consumed = bound
        ms = bound * FRAME_MS
        if stream.outputs is None:
            if is_last:
                raise InsufficientFramesError(
                    "utterance %r yields no encoder positions" % (plan.utt_id,))
            continue  # not enough input yet for a single position
        enc = stream.outputs.data
        cap = policy.cap(stream.positions)
        budget = len(out_ids) + policy.write_tokens
        while is_last or len(out_ids) < budget:
            if len(out_ids) >= cap:
                if is_last:
                    truncated = True
                break
            logits, new_state, _ = decode_step(prev, state, enc, params, cfg)
            token = int(np.argmax(logits[0]))
            if token == EOS_ID:
                if not is_last:
                    suppressed += 1
                break  # mid-stream the state stays uncommitted; go read more input
            state = new_state
            prev = token
            out_ids.append(token)
            tokens.append(_token_text(vocab, token))
            delays.append(ms)
    return DecodeTrace(plan.utt_id, vocab.decode(out_ids), tuple(plan.boundaries), tokens,
                       delays, stream.cost(), truncated, suppressed)


def offline_trace(frames: np.ndarray, params: Parameters, cfg: ModelConfig,
                  policy: DecodePolicy | None = None, utt_id: str = "") -> DecodeTrace:
    """Greedy decoding over the fully encoded utterance.

    This is simulate with a plan that reads every frame at once, through the
    re-encode strategy of the model's direction: the one read encodes the
    utterance exactly as offline encoding does, and the decoder then writes
    until end-of-sequence or the length cap.  utt_id names the trace and
    the utterance in errors.
    """
    strategy = "blstm-reencode" if cfg.bidirectional else "ulstm-reencode"
    plan = SegmentationPlan(utt_id, len(frames), (len(frames),))
    return simulate(frames, plan, policy or DecodePolicy(), params, cfg, strategy)


def offline_translate(frames: np.ndarray, params: Parameters, cfg: ModelConfig,
                      policy: DecodePolicy | None = None, utt_id: str = "") -> str:
    """The hypothesis of offline_trace."""
    return offline_trace(frames, params, cfg, policy, utt_id).hypothesis


# ---------------------------------------------------------------------------
# trace files: json lines, R/W events then one closing record per utterance


def _trace_lines(tr: DecodeTrace):
    """The json lines of one trace, and the only code that knows their
    layout: each read, then the writes whose delay is that read's time,
    then a summary.  A write that follows no read is a ContractError."""
    utt, n, placed, prev = tr.utt_id, min(len(tr.tokens), len(tr.delays_ms)), 0, 0
    for g in tr.reads:
        ms = g * FRAME_MS
        yield json.dumps({"utt": utt, "event": "R", "frames": g - prev, "g": g, "ms": ms})
        prev = g
        while placed < n and tr.delays_ms[placed] == ms:
            yield json.dumps({"utt": utt, "event": "W", "token": tr.tokens[placed],
                              "g": g, "ms": ms})
            placed += 1
    if not placed == len(tr.tokens) == len(tr.delays_ms):
        raise ContractError("trace %r places %d of its %d tokens and %d delays after a read"
                            % (utt, placed, len(tr.tokens), len(tr.delays_ms)))
    cost = tr.cost
    yield json.dumps({"utt": utt, "hyp": tr.hypothesis, "truncated": tr.truncated,
                      "suppressed_eos": tr.suppressed_eos,
                      "cost": {"frames_processed": cost.frames_processed,
                               "chunks": cost.chunks, "wall_ns": cost.wall_ns}})


def write_traces(path, traces: list) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tr in traces:
            for line in _trace_lines(tr):
                f.write(line + "\n")


def read_traces(path) -> list:
    """Parse a trace file back into DecodeTrace records.  Every line must
    name the open utterance, the file must not end inside one, every field
    read must be present with its type, and an utterance's lines must be
    exactly the lines its record writes, so writing the records back
    reproduces the file."""
    out = []
    current, lines, reads, tokens, delays = None, [], [], [], []  # the open utterance
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        where = "%s line %d" % (path, lineno)
        obj = parse_json(line, where)
        utt = typed_field(obj, "utt", (str,), where)
        if current not in (None, utt):
            raise ConfigError("%s belongs to %r inside utterance %r" % (where, utt, current))
        lines.append((lineno, line))
        if "event" in obj:
            current = utt
            if obj["event"] not in ("R", "W"):
                raise ConfigError("%s has unknown event %r" % (where, obj["event"]))
            ms = typed_field(obj, "ms", (int, float), where)
            if obj["event"] == "R":
                reads.append(typed_field(obj, "g", (int,), where))
            else:
                tokens.append(typed_field(obj, "token", (str,), where))
                delays.append(ms)
        elif "hyp" in obj:
            cost = typed_field(obj, "cost", (dict,), where)
            record = DecodeTrace(
                utt, typed_field(obj, "hyp", (str,), where), tuple(reads), tokens, delays,
                EncodeCost(*(typed_field(cost, key, (int,), where)
                             for key in ("frames_processed", "chunks", "wall_ns"))),
                typed_field(obj, "truncated", (bool,), where),
                typed_field(obj, "suppressed_eos", (int,), where))
            try:
                for (n, got), want in zip(lines, _trace_lines(record)):
                    if got != want:
                        raise ConfigError("%s line %d is not the line its record writes, %s"
                                          % (path, n, want))
            except (ContractError, OverflowError) as e:  # a g no float can hold
                raise ConfigError("%s: %s" % (where, e)) from None
            out.append(record)
            current, lines, reads, tokens, delays = None, [], [], [], []
        else:
            raise ConfigError("%s is neither an event nor a summary" % where)
    if current is not None:
        raise ConfigError("%s ends inside utterance %r" % (path, current))
    return out
