"""Read scheduling: when the decoder is allowed to consume more input.

A plan is a list of cumulative frame boundaries for one utterance; the
controller reads up to each boundary in turn.  Three policies build plans:
a fixed initial wait k plus stride s, oracle word boundaries from a
reference segmentation, and random segment sizes drawn within bounds.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from .errors import ConfigError, EmptyUtteranceError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WordSpan:
    """A word's frame extent; the text may be empty when loaded from disk."""

    word: str
    start: int
    end: int


@dataclass(frozen=True)
class SegmentationPlan:
    """Cumulative read boundaries for one utterance."""

    utt_id: str
    total_frames: int
    boundaries: tuple

    def __post_init__(self):
        if self.total_frames < 1:
            raise EmptyUtteranceError("utterance %r has no frames" % (self.utt_id,))
        if not self.boundaries:
            raise ConfigError("plan for %r has no boundaries" % (self.utt_id,))
        prev = 0
        for b in self.boundaries:
            if b <= prev:
                raise ConfigError("boundaries must be strictly increasing, got %r"
                                  % (self.boundaries,))
            prev = b
        if prev != self.total_frames:
            raise ConfigError("plan for %r ends at %d, utterance has %d frames"
                              % (self.utt_id, prev, self.total_frames))

    @property
    def segment_sizes(self) -> tuple:
        out, prev = [], 0
        for b in self.boundaries:
            out.append(b - prev)
            prev = b
        return tuple(out)


def fixed_plan(total_frames: int, k: int, s: int, utt_id: str = "") -> SegmentationPlan:
    """Wait k frames, then read s frames at a time until the input ends.

    k = 0 starts with a plain stride read.  A k beyond the utterance length
    collapses to a single read of everything.
    """
    if total_frames < 1:
        raise EmptyUtteranceError("utterance %r has no frames" % (utt_id,))
    if k < 0:
        raise ConfigError("k must be non-negative, got %d" % k)
    if s < 1:
        raise ConfigError("s must be positive, got %d" % s)
    first = min(k, total_frames) if k > 0 else min(s, total_frames)
    bounds = [first]
    while bounds[-1] < total_frames:
        bounds.append(min(bounds[-1] + s, total_frames))
    return SegmentationPlan(utt_id, total_frames, tuple(bounds))


def oracle_word_plan(total_frames: int, words: list, k: int = 0,
                     utt_id: str = "") -> SegmentationPlan:
    """Read to the end of the first word whose extent reaches k, then one
    word per read.  Trailing frames after the last word join the final read.
    """
    if total_frames < 1:
        raise EmptyUtteranceError("utterance %r has no frames" % (utt_id,))
    if k < 0:
        raise ConfigError("k must be non-negative, got %d" % k)
    ends = []
    prev_end = 0
    for span in words:
        if span.start < prev_end:
            raise ConfigError("word spans overlap or run backwards near frame %d" % span.start)
        if span.start > prev_end:
            logger.warning("word spans for %r leave frames %d:%d uncovered",
                           utt_id, prev_end, span.start)
        if span.end <= span.start or span.end > total_frames:
            raise ConfigError("word span %d:%d outside utterance of %d frames"
                              % (span.start, span.end, total_frames))
        ends.append(span.end)
        prev_end = span.end
    threshold = min(k, total_frames)
    bounds = []
    for e in ends:
        if not bounds:
            if e >= threshold:
                bounds.append(e)
        elif e > bounds[-1]:
            bounds.append(e)
    if not bounds or bounds[-1] < total_frames:
        bounds.append(total_frames)
    return SegmentationPlan(utt_id, total_frames, tuple(bounds))


def random_plan(total_frames: int, low: int, high: int, seed: int,
                utt_id: str = "") -> SegmentationPlan:
    """Segment sizes drawn uniformly from [low, high]; the last draw is cut
    back to the utterance end, so the final segment may run short."""
    if total_frames < 1:
        raise EmptyUtteranceError("utterance %r has no frames" % (utt_id,))
    if low < 1 or high < low:
        raise ConfigError("need 1 <= low <= high, got [%d, %d]" % (low, high))
    rng = random.Random(seed)
    bounds = []
    cum = 0
    while cum < total_frames:
        cum = min(cum + rng.randint(low, high), total_frames)
        bounds.append(cum)
    return SegmentationPlan(utt_id, total_frames, tuple(bounds))


# ---------------------------------------------------------------------------
# word boundary files: one utterance per line, "<utt_id>\t<start>:<end>,..."


def save_word_boundaries(path, table: dict) -> None:
    """Write word extents per utterance.  Word text is not stored.

    An utterance id may not contain a tab or a line break, which would make
    the file unreadable; an utterance may have no spans.
    """
    for utt_id in table:
        if any(c in utt_id for c in "\t\n\r"):
            raise ConfigError("utterance id %r contains a tab or a line break" % (utt_id,))
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, spans in table.items():
            cells = ",".join("%d:%d" % (sp.start, sp.end) for sp in spans)
            f.write("%s\t%s\n" % (utt_id, cells))


def load_word_boundaries(path) -> dict:
    """Read word extents; spans come back with empty word text."""
    table: dict = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                utt_id, cells = line.split("\t")
                spans = []
                for cell in cells.split(",") if cells else ():
                    a, b = cell.split(":")
                    spans.append(WordSpan("", int(a), int(b)))
            except ValueError:
                raise ConfigError("%s line %d is not a boundary row" % (path, lineno)) from None
            if utt_id in table:
                raise ConfigError("%s line %d repeats utterance %r" % (path, lineno, utt_id))
            table[utt_id] = spans
    return table
