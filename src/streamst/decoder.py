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
import logging
from dataclasses import dataclass

import numpy as np

from .encoding import EncodeCost, EncoderStream
from .errors import ConfigError, InsufficientFramesError
from .model import (BOS_ID, EOS_ID, NUM_SPECIALS, ModelConfig, Parameters, Vocab,
                    decode_step, init_decoder_state)
from .segmentation import SegmentationPlan

logger = logging.getLogger(__name__)

FRAME_MS = 10.0  # default frame duration

_SPECIAL_TEXT = {0: "<pad>", 1: "<bos>", 2: "<eos>"}


@dataclass
class DecodePolicy:
    """Write-side knobs; the read side lives in the segmentation plan."""

    write_tokens: int = 1        # tokens allowed per write phase
    max_target_factor: float = 3.0  # length cap as a multiple of encoder positions
    max_target_slack: int = 10   # constant headroom on top of the cap

    def cap(self, positions: int) -> int:
        return int(self.max_target_factor * positions) + self.max_target_slack


@dataclass
class DecodeTrace:
    """Everything observable about one simulated utterance."""

    utt_id: str
    events: list          # R/W dicts in emission order
    hypothesis: str
    cost: EncodeCost
    frame_ms: float
    total_frames: int
    truncated: bool = False
    suppressed_eos: int = 0

    @property
    def write_delays_ms(self) -> list:
        return [e["ms"] for e in self.events if e["event"] == "W"]

    @property
    def duration_ms(self) -> float:
        return self.total_frames * self.frame_ms


def _token_text(vocab: Vocab, token: int) -> str:
    if token < NUM_SPECIALS:
        return _SPECIAL_TEXT[token]
    return vocab.decode([token])


def simulate(frames: np.ndarray, plan: SegmentationPlan, policy: DecodePolicy,
             params: Parameters, cfg: ModelConfig, strategy: str,
             frame_ms: float = FRAME_MS) -> DecodeTrace:
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
    events: list = []
    suppressed = 0
    truncated = False
    consumed = 0
    n_bounds = len(plan.boundaries)
    for idx, bound in enumerate(plan.boundaries):
        is_last = idx == n_bounds - 1
        stream.feed(frames[consumed:bound], is_last=is_last)
        events.append({"utt": plan.utt_id, "event": "R", "frames": bound - consumed,
                       "g": bound, "ms": bound * frame_ms})
        consumed = bound
        enc = stream.outputs
        if enc is None:
            if is_last:
                raise InsufficientFramesError(
                    "utterance %r yields no encoder positions" % (plan.utt_id,))
            continue  # not enough input yet for a single position
        cap = policy.cap(stream.positions)
        budget = len(out_ids) + policy.write_tokens
        while is_last or len(out_ids) < budget:
            if len(out_ids) >= cap:
                if is_last:
                    truncated = True
                    logger.warning("hypothesis for %r hit the length cap", plan.utt_id)
                break
            logits, new_state, _ = decode_step(prev, state, enc, params, cfg)
            token = int(np.argmax(logits.data[0]))
            if token == EOS_ID:
                if not is_last:
                    suppressed += 1
                    logger.debug("suppressed end-of-sequence on %r at g=%d",
                                 plan.utt_id, bound)
                break  # mid-stream the state stays uncommitted; go read more input
            state = new_state
            prev = token
            out_ids.append(token)
            events.append({"utt": plan.utt_id, "event": "W",
                           "token": _token_text(vocab, token),
                           "g": bound, "ms": bound * frame_ms})
    return DecodeTrace(utt_id=plan.utt_id, events=events,
                       hypothesis=vocab.decode(out_ids), cost=stream.cost(),
                       frame_ms=frame_ms, total_frames=plan.total_frames,
                       truncated=truncated, suppressed_eos=suppressed)


def offline_translate(frames: np.ndarray, params: Parameters, cfg: ModelConfig,
                      policy: DecodePolicy | None = None) -> str:
    """Greedy decoding over the fully encoded utterance.

    This is simulate with a plan that reads every frame at once, through the
    re-encode strategy of the model's direction: the one read encodes the
    utterance exactly as offline encoding does, and the decoder then writes
    until end-of-sequence or the length cap.
    """
    strategy = "blstm-reencode" if cfg.bidirectional else "ulstm-reencode"
    plan = SegmentationPlan("", len(frames), (len(frames),))
    return simulate(frames, plan, policy or DecodePolicy(), params, cfg, strategy).hypothesis


# ---------------------------------------------------------------------------
# trace files: json lines, R/W events then one closing record per utterance


@dataclass
class TraceRecord:
    """A trace as read back from disk; enough for every metric."""

    utt_id: str
    hypothesis: str
    delays_ms: list
    duration_ms: float
    frames_processed: int
    wall_ns: int


def write_traces(path, traces: list) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tr in traces:
            for event in tr.events:
                f.write(json.dumps(event) + "\n")
            f.write(json.dumps({"utt": tr.utt_id, "hyp": tr.hypothesis,
                                "cost": {"frames_processed": tr.cost.frames_processed,
                                         "wall_ns": tr.cost.wall_ns}}) + "\n")


def _field(obj, key: str, kinds: tuple, path, lineno: int):
    """obj[key], where obj must be a dict and the value one of kinds; a
    bool does not count as a number."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError("%s line %d: %s must be %s, got %r"
                          % (path, lineno, key, " or ".join(k.__name__ for k in kinds), value))
    return value


def read_traces(path) -> list:
    """Parse a trace file back into per-utterance records.  Every line must
    name the open utterance, the file must not end inside one, and every
    field read must be present with its type."""
    out = []
    current, delays, duration = None, [], 0.0  # the open utterance and its events
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise ConfigError("%s line %d is not valid json" % (path, lineno)) from None
            utt = obj.get("utt") if isinstance(obj, dict) else None
            if utt is None:
                raise ConfigError("%s line %d names no utterance" % (path, lineno))
            if current not in (None, utt):
                raise ConfigError("%s line %d belongs to %r inside utterance %r"
                                  % (path, lineno, utt, current))
            if "event" in obj:
                current = utt
                if obj["event"] not in ("R", "W"):
                    raise ConfigError("%s line %d has unknown event %r"
                                      % (path, lineno, obj["event"]))
                ms = _field(obj, "ms", (int, float), path, lineno)
                if obj["event"] == "R":
                    duration = ms
                else:
                    delays.append(ms)
            elif "hyp" in obj:
                cost = obj.get("cost")
                if not isinstance(cost, dict):
                    raise ConfigError("%s line %d: cost must be an object, got %r"
                                      % (path, lineno, cost))
                out.append(TraceRecord(
                    utt_id=utt, hypothesis=_field(obj, "hyp", (str,), path, lineno),
                    delays_ms=delays, duration_ms=duration,
                    frames_processed=_field(cost, "frames_processed", (int,), path, lineno),
                    wall_ns=_field(cost, "wall_ns", (int,), path, lineno)))
                current, delays, duration = None, [], 0.0
            else:
                raise ConfigError("%s line %d is neither an event nor a summary"
                                  % (path, lineno))
    if current is not None:
        raise ConfigError("%s ends inside utterance %r" % (path, current))
    return out
