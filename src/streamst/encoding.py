"""Incremental encoding strategies for streaming input.

Every feed that adds frames runs one encode over a chunk of the buffer.
After an encode at buffered length g, the next chunk starts at g - reach and
runs to the end of the buffer.  The three strategies differ only in that
reach, in whether the encoder starts fresh or from the state the last chunk
carried out, and in whether new outputs replace or extend the old ones.

"blstm-reencode" and "ulstm-reencode" reach over the whole buffer, start
fresh and replace.  The bidirectional variant pays twice per buffered frame;
the unidirectional variant produces outputs bit-identical to encoding the
same prefix offline.  "ulstm-overlap" reaches back over half the frames its
last chunk added, carries state and appends.  It drops a quarter of that
overlap worth of trailing positions, which were computed against the zero
padding at the chunk edge and would otherwise be corrupted, so its outputs
grow monotonically and earlier positions are never revised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, StreamClosedError
from .model import MIN_CHUNK_FRAMES, ModelConfig, Parameters, encoder_forward, vgg_forward

STRATEGIES = ("blstm-reencode", "ulstm-reencode", "ulstm-overlap")


def _half(n: int) -> int:
    # round(n / 2) with halves rounding up
    return (n + 1) // 2


def _quarter(n: int) -> int:
    # round(n / 4) with halves rounding up
    return (n + 2) // 4


@dataclass(slots=True)
class EncodeCost:
    """Work counters for one stream."""

    frames_processed: int  # frames pushed through the front end, doubled for bidirectional
    chunks: int            # encoder invocations
    wall_ns: int           # wall clock spent encoding


@dataclass(slots=True)
class ChunkRecord:
    """One encoder invocation: which frames went in, what came out."""

    start: int      # first buffered frame index fed to the front end
    length: int     # chunk length in frames
    kept: int       # positions emitted after discarding
    discarded: int  # trailing positions dropped as edge-corrupted


def check_strategy(strategy: str, cfg: ModelConfig) -> None:
    """strategy is a known one, and cfg's encoder runs in its direction."""
    if strategy not in STRATEGIES:
        raise ConfigError("unknown strategy %r, expected one of %s"
                          % (strategy, ", ".join(STRATEGIES)))
    if strategy == "blstm-reencode" and not cfg.bidirectional:
        raise ConfigError("blstm-reencode needs a bidirectional model")
    if strategy != "blstm-reencode" and cfg.bidirectional:
        raise ConfigError("%s needs a unidirectional model" % strategy)


class EncoderStream:
    """Incremental encoder for one utterance.

    Frames arrive through feed(); encoder outputs accumulate according to the
    configured strategy.  Feeding after the final chunk raises
    StreamClosedError.  A closed stream lets go of its input frames and
    keeps its outputs, chunk log and cost.
    """

    def __init__(self, strategy: str, params: Parameters, cfg: ModelConfig):
        check_strategy(strategy, cfg)
        self.strategy = strategy
        self.params = params
        self.cfg = cfg
        self._buffer: np.ndarray | None = np.zeros((0, cfg.feat_dim), dtype=np.float32)
        self._fed = 0  # frames fed so far, the first rows of a buffer that grows by doubling
        self._closed = False
        self._outputs: ad.Tensor | None = None  # (P, enc_out) rows encoded so far
        self._carried: list | None = None  # one (h, c) pair per encoder layer
        self._tail: np.ndarray | None = None  # feature rows the last chunk discarded
        self._offset = 0       # where the next chunk starts in the buffer
        self._encoded_to = 0   # buffered frames consumed by encodes so far
        self.chunk_log: list[ChunkRecord] = []
        self._wall_ns = 0

    @property
    def positions(self) -> int:
        return 0 if self._outputs is None else self._outputs.shape[0]

    @property
    def outputs(self) -> ad.Tensor | None:
        """Current encoder outputs as a (P, enc_out) tensor, None before the
        first position exists."""
        return self._outputs

    def cost(self) -> EncodeCost:
        frames = sum(r.length for r in self.chunk_log) * (2 if self.cfg.bidirectional else 1)
        return EncodeCost(frames, len(self.chunk_log), self._wall_ns)

    def feed(self, frames: np.ndarray, is_last: bool = False) -> ad.Tensor | None:
        """Append frames and encode according to the strategy.

        Returns the updated outputs.  Chunks shorter than the front end
        window are buffered until enough frames arrive; a final chunk that
        stays shorter is dropped.  A feed without frames encodes nothing.  A
        final feed that encodes no chunk of its own, empty or too short,
        makes an overlap stream encode the positions its last chunk
        discarded, and that chunk's record then counts them as kept.
        """
        if self._closed:
            raise StreamClosedError("stream already received its final chunk")
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[1] != self.cfg.feat_dim:
            raise ConfigError("frames must be (n, %d), got %r" % (self.cfg.feat_dim, frames.shape))
        fed = self._fed + len(frames)
        if fed > len(self._buffer):
            grown = np.empty((max(fed, 2 * len(self._buffer)), self.cfg.feat_dim), dtype=np.float32)
            grown[:self._fed] = self._buffer[:self._fed]
            self._buffer = grown
        self._buffer[self._fed:fed] = frames
        self._fed = fed
        if is_last:
            self._closed = True
        t0 = time.perf_counter_ns()
        self._encode()
        self._wall_ns += time.perf_counter_ns() - t0
        if self._closed:
            self._buffer = self._tail = None  # no encode can follow
        return self.outputs

    def _encode(self) -> None:
        g = self._fed
        new = g - self._encoded_to
        chunk = self._buffer[self._offset:g]
        if new <= 0 or len(chunk) < MIN_CHUNK_FRAMES:
            # wait for more frames; at the close, a chunk this short is
            # dropped and the positions the last chunk held back are kept
            if self._closed and self._tail is not None:
                self._encode_rows(self._tail)
                last = self.chunk_log[-1]
                self.chunk_log[-1] = ChunkRecord(last.start, last.length, last.kept + last.discarded, 0)
            return
        if self.strategy == "ulstm-overlap":
            reach, replace = _half(new), False
        else:
            reach, replace = g, True
        # replaced outputs are recomputed by the next encode, so only
        # appended ones need their edge-corrupted positions held back
        discard = 0 if self._closed or replace else _quarter(reach)
        feats = vgg_forward(chunk, self.params, self.cfg)
        total = feats.shape[0]
        kept = max(0, total - discard)
        if replace:
            self._outputs = self._carried = None
        if kept > 0:
            self._encode_rows(feats.data[:kept])
        self._tail = feats.data[kept:] if kept < total else None
        self.chunk_log.append(ChunkRecord(self._offset, len(chunk), kept, total - kept))
        self._encoded_to = g
        self._offset = g - reach

    def _encode_rows(self, rows: np.ndarray) -> None:
        outputs, self._carried = encoder_forward(ad.Tensor(rows), self.params, self.cfg,
                                                 init=self._carried)
        if self._outputs is not None:
            outputs = ad.Tensor(np.concatenate([self._outputs.data, outputs.data], axis=0))
        self._outputs = outputs
