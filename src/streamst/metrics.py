"""Quality, latency, and difficulty metrics.

BLEU is the corpus-level geometric mean of modified n-gram precisions with a
brevity penalty.  Average lagging measures how many milliseconds the writes
trail an ideal evenly-paced translator, truncated at the first write that
waited for the whole input.  Lagging difficulty scores how early a reference
translation needs source material it has not seen yet, from word alignments
alone: it is the average, up to the point where the source is exhausted, of
the furthest aligned source position minus the evenly-paced diagonal.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError

# One simulation configuration: its fields and their types, in column order.
CONFIG_FIELDS = (("strategy", str), ("k", int), ("s", int), ("N", int), ("segmentation", str))

TRADEOFF_COLUMNS = [key for key, _ in CONFIG_FIELDS] + ["BLEU", "AL_ms", "frames_processed",
                                                        "wall_ns"]

BLEU_ORDER = 4
TOKENIZE_MODES = ("word", "char")


def check_tokenize(mode, where: str = "tokenize mode") -> None:
    if mode not in TOKENIZE_MODES:
        raise ConfigError("%s must be 'word' or 'char', got %r" % (where, mode))


def _tokens(text: str, mode: str) -> list:
    check_tokenize(mode)
    return text.split() if mode == "word" else list(text)


# ---------------------------------------------------------------------------
# corpus BLEU


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list, references: list, tokenize: str = "word") -> float:
    """Corpus BLEU in [0, 1] over n-grams of orders 1 to BLEU_ORDER.

    Orders with no hypothesis n-grams anywhere in the corpus are left out of
    the geometric mean; an order with candidates but zero matches sends the
    score to zero.
    """
    if not hypotheses:
        raise ValueError("empty hypothesis corpus")
    if len(hypotheses) != len(references):
        raise ValueError("%d hypotheses against %d references"
                         % (len(hypotheses), len(references)))
    matches = [0] * BLEU_ORDER
    guesses = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = _tokens(hyp, tokenize)
        r = _tokens(ref, tokenize)
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, BLEU_ORDER + 1):
            hc = _ngrams(h, n)
            if not hc:
                continue
            rc = _ngrams(r, n)
            guesses[n - 1] += sum(hc.values())
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    used = 0
    for n in range(BLEU_ORDER):
        if guesses[n] == 0:
            continue  # nothing this long anywhere; leave the order out
        if matches[n] == 0:
            return 0.0
        used += 1
        log_sum += math.log(matches[n] / guesses[n])
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_sum / used)


# ---------------------------------------------------------------------------
# average lagging


def average_lagging(delays_ms: list, duration_ms: float, ref_len: int) -> float:
    """Mean lag of the writes behind an evenly paced translator, in ms.

    delays_ms[i] is when hypothesis token i+1 was committed, measured from
    utterance start.  The average stops at the first token whose delay
    reached the full duration; if none did, it runs over all tokens.
    """
    if not delays_ms:
        raise ValueError("no write delays")
    if ref_len < 1:
        raise ValueError("reference length must be positive, got %d" % ref_len)
    if duration_ms <= 0:
        raise ValueError("duration must be positive, got %r" % duration_ms)
    tau = len(delays_ms)
    for i, d in enumerate(delays_ms, 1):
        if d >= duration_ms:
            tau = i
            break
    rate = duration_ms / ref_len
    total = 0.0
    for i in range(1, tau + 1):
        total += delays_ms[i - 1] - (i - 1) * rate
    return total / tau


def utterance_lagging(trace, reference: str, tokenize: str) -> float | None:
    """AL of one DecodeTrace against its reference text, whose length in
    tokens counts as at least 1; None when the trace wrote nothing."""
    if not trace.delays_ms:
        return None
    return average_lagging(trace.delays_ms, trace.duration_ms,
                           max(1, len(_tokens(reference, tokenize))))


# ---------------------------------------------------------------------------
# lagging difficulty


@dataclass(frozen=True)
class AlignmentSet:
    """Word alignment for one sentence pair; indices are 1-based."""

    utt_id: str
    src_len: int
    tgt_len: int
    pairs: frozenset  # (source position, target position)

    def __post_init__(self):
        if self.src_len < 1 or self.tgt_len < 1:
            raise ConfigError("alignment for %r has empty sides" % (self.utt_id,))
        for i, t in self.pairs:
            if not (1 <= i <= self.src_len and 1 <= t <= self.tgt_len):
                raise ConfigError("pair (%d, %d) outside %dx%d for %r"
                                  % (i, t, self.src_len, self.tgt_len, self.utt_id))

    @property
    def reordered(self) -> bool:
        """Some pair lies off the diagonal: the target reorders the source."""
        return any(i != t for i, t in self.pairs)


@dataclass(frozen=True)
class DifficultyScore:
    utt_id: str
    value: float
    tau: int  # target position where the source was exhausted


def lagging_difficulty(align: AlignmentSet) -> DifficultyScore:
    """Average lagging of the running maximum of aligned source positions,
    with src_len as the duration and tgt_len as the reference length.

    The source counts as exhausted at the final target token regardless of
    alignment coverage, so the cut-off position always exists.
    """
    if not align.pairs:
        raise ValueError("alignment set for %r has no pairs" % (align.utt_id,))
    by_target: dict = {}
    for i, t in align.pairs:
        by_target[t] = max(by_target.get(t, 0), i)
    z, zs = 0, []
    for t in range(1, align.tgt_len):
        z = max(z, by_target.get(t, 0))
        zs.append(z)
    zs.append(align.src_len)
    return DifficultyScore(align.utt_id, average_lagging(zs, align.src_len, align.tgt_len),
                           zs.index(align.src_len) + 1)


def extract_subsets(scores: list, n: int):
    """Pick the n hardest and n easiest utterance ids; ties break by id."""
    if n < 1:
        raise ValueError("subset size must be positive, got %d" % n)
    if n > len(scores):
        raise ValueError("subset of %d from only %d scores" % (n, len(scores)))
    hardest = [s.utt_id for s in sorted(scores, key=lambda s: (-s.value, s.utt_id))[:n]]
    easiest = [s.utt_id for s in sorted(scores, key=lambda s: (s.value, s.utt_id))[:n]]
    return hardest, easiest


# ---------------------------------------------------------------------------
# trade-off tables


@dataclass
class TradeoffRow:
    config: dict             # the CONFIG_FIELDS the row was computed for
    bleu: float
    al_ms: float
    frames_processed: float  # mean per utterance
    wall_ns: float           # mean per utterance
    truncated: int           # utterances whose final read hit the length cap


def tradeoff_table(results: list, references: dict, tokenize: str = "word") -> list:
    """Aggregate one row per configuration.

    results holds (config, traces) pairs, where traces are per-utterance
    DecodeTraces; each row keeps its config as given.  A configuration
    without traces, or a trace whose utterance has no reference, is refused.
    AL averages over the traces that wrote something.
    """
    rows = []
    for config, traces in results:
        if not traces:
            raise ConfigError("configuration %r has no traces" % (config,))
        hyps, refs, lags = [], [], []
        frames, walls = [], []
        for tr in traces:
            ref = references.get(tr.utt_id)
            if ref is None:
                raise ConfigError("no reference for utterance %r" % (tr.utt_id,))
            hyps.append(tr.hypothesis)
            refs.append(ref)
            frames.append(tr.cost.frames_processed)
            walls.append(tr.cost.wall_ns)
            lag = utterance_lagging(tr, ref, tokenize)
            if lag is not None:
                lags.append(lag)
        rows.append(TradeoffRow(config, bleu(hyps, refs, tokenize=tokenize),
                                (sum(lags) / len(lags)) if lags else float("nan"),
                                sum(frames) / len(frames), sum(walls) / len(walls),
                                sum(tr.truncated for tr in traces)))
    return rows


def write_tradeoff_csv(path, rows: list) -> None:
    """One TRADEOFF_COLUMNS line per row."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRADEOFF_COLUMNS)
        for r in rows:
            w.writerow([r.config[key] for key, _ in CONFIG_FIELDS]
                       + ["%.6f" % r.bleu, "%.3f" % r.al_ms, "%.1f" % r.frames_processed,
                          "%.1f" % r.wall_ns])
