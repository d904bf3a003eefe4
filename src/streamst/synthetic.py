"""Synthetic translation task with controllable word-order divergence.

Source sentences are random words over a small letter alphabet.  The target
is a deterministic per-letter substitution into uppercase, so translation
quality is measurable without human references.  Each source symbol (letters
and spaces alike) emits a fixed number of feature frames: a per-symbol mean
vector plus gaussian noise.  A fraction of utterances can have their target
word order reversed, which makes their alignments anti-monotone and their
early target words depend on late source material.  This module alone reads
and writes a corpus directory's files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BinaryReader, ConfigError, read_text
from .metrics import AlignmentSet
from .segmentation import WordSpan

FEATURES_MAGIC = b"SIMF"

SOURCE_ALPHABET = "abcdefghijklmnopqrst"

MAX_WORD_LEN = 6


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters that define the task; the seed also fixes the per-symbol
    mean feature vectors."""

    alphabet: str = SOURCE_ALPHABET
    frames_per_symbol: int = 8
    feat_dim: int = 16
    feature_scale: float = 6.0
    noise_sigma: float = 0.1
    cipher_shift: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.frames_per_symbol < 4:
            raise ConfigError("frames_per_symbol must be at least 4, got %d"
                              % self.frames_per_symbol)
        if len(set(self.alphabet)) != len(self.alphabet) or " " in self.alphabet:
            raise ConfigError("alphabet must be unique letters without spaces")
        if self.feat_dim < 4:
            raise ConfigError("feat_dim must be at least 4")
        if not 0 < self.feature_scale < float("inf"):
            raise ConfigError("feature_scale must be positive and finite, got %r"
                              % (self.feature_scale,))
        if not 0 <= self.noise_sigma < float("inf"):
            raise ConfigError("noise_sigma must be non-negative and finite, got %r"
                              % (self.noise_sigma,))

    @property
    def target_vocab(self) -> str:
        return self.alphabet.upper() + " "

    def cipher_char(self, ch: str) -> str:
        if ch == " ":
            return " "
        idx = self.alphabet.index(ch)
        return self.alphabet[(idx + self.cipher_shift) % len(self.alphabet)].upper()

    def cipher_word(self, word: str) -> str:
        return "".join(self.cipher_char(c) for c in word)


@dataclass
class Utterance:
    utt_id: str
    source: str
    target: str
    frames: np.ndarray                 # (T, feat_dim) float32
    words: list                        # WordSpans tiling the frame axis
    alignment: AlignmentSet            # word-level, 1-based

    @property
    def reversed_order(self) -> bool:
        return self.alignment.reordered

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def base_vectors(spec: SyntheticSpec) -> dict:
    """Per-symbol mean feature vectors, fixed by the task seed alone.

    Scaled well above unit variance so the symbol identity survives the
    small-weight convolutional front end of an untrained model.
    """
    rng = np.random.default_rng(spec.seed)
    out = {}
    for ch in spec.alphabet + " ":
        vec = rng.standard_normal(spec.feat_dim) * spec.feature_scale
        out[ch] = vec.astype(np.float32)
    return out


def _word_sizes(rng, total_symbols: int) -> list:
    """Split a symbol budget into word lengths, one space between words."""
    sizes = [int(rng.integers(1, min(MAX_WORD_LEN, total_symbols) + 1))]
    remaining = total_symbols - sizes[0]
    while remaining >= 2:
        w = int(rng.integers(1, min(MAX_WORD_LEN, remaining - 1) + 1))
        sizes.append(w)
        remaining -= w + 1
    if remaining == 1:
        sizes[-1] += 1  # a lone symbol cannot be a word of its own
    return sizes


def generate_corpus(spec: SyntheticSpec, n_utts: int, min_len: int, max_len: int,
                    reversal_fraction: float = 0.0, seed: int | None = None) -> list:
    """Build utterances with features, word spans, and alignments.

    min_len and max_len bound the symbol count (letters plus spaces).  seed
    defaults to the task seed; the per-symbol mean vectors depend only on
    the task seed, so different corpora share them.
    """
    if n_utts < 1:
        raise ConfigError("need at least one utterance")
    if not (1 <= min_len <= max_len):
        raise ConfigError("bad length range [%d, %d]" % (min_len, max_len))
    if not (0.0 <= reversal_fraction <= 1.0):
        raise ConfigError("reversal_fraction must be within [0, 1]")
    bases = base_vectors(spec)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    fps = spec.frames_per_symbol
    corpus = []
    for u in range(n_utts):
        total = int(rng.integers(min_len, max_len + 1))
        sizes = _word_sizes(rng, total)
        words_text = []
        for w in sizes:
            words_text.append("".join(spec.alphabet[int(rng.integers(len(spec.alphabet)))]
                                      for _ in range(w)))
        source = " ".join(words_text)
        reverse = bool(rng.random() < reversal_fraction)
        target_words = [spec.cipher_word(w) for w in words_text]
        if reverse:
            target_words = list(reversed(target_words))
        target = " ".join(target_words)
        n_words = len(words_text)
        # spans tile the frame axis; each word keeps its trailing space
        spans = []
        pos = 0
        for j, w in enumerate(words_text):
            start = pos * fps
            pos += len(w) + (1 if j < n_words - 1 else 0)
            spans.append(WordSpan(start, pos * fps))
        t_len = len(source) * fps
        frames = np.empty((t_len, spec.feat_dim), dtype=np.float32)
        for p, ch in enumerate(source):
            noise = rng.normal(0.0, spec.noise_sigma, size=(fps, spec.feat_dim))
            frames[p * fps:(p + 1) * fps] = bases[ch] + noise.astype(np.float32)
        if reverse:
            pairs = {(j + 1, n_words - j) for j in range(n_words)}
        else:
            pairs = {(j + 1, j + 1) for j in range(n_words)}
        utt_id = "utt%04d" % u
        corpus.append(Utterance(
            utt_id=utt_id, source=source, target=target, frames=frames,
            words=spans,
            alignment=AlignmentSet(utt_id, n_words, n_words, frozenset(pairs))))
    return corpus


def split_holdout(corpus: list, fraction: float = 0.1):
    """Deterministic split: the tail of the id-sorted corpus is held out."""
    if not (0.0 <= fraction < 1.0):
        raise ConfigError("holdout fraction must be within [0, 1)")
    ordered = sorted(corpus, key=lambda u: u.utt_id)
    if fraction == 0.0 or len(ordered) < 2:
        return ordered, []
    n_hold = max(1, int(len(ordered) * fraction))
    return ordered[:-n_hold], ordered[-n_hold:]


# ---------------------------------------------------------------------------
# feature files


def write_features(path, items: list) -> None:
    """Write (utt_id, frames) pairs as one binary file."""
    with open(path, "wb") as f:
        f.write(FEATURES_MAGIC)
        f.write(struct.pack("<I", len(items)))
        for utt_id, frames in items:
            ident = utt_id.encode("utf-8")
            t_len, d = frames.shape
            f.write(struct.pack("<I", len(ident)))
            f.write(ident)
            f.write(struct.pack("<II", t_len, d))
            f.write(np.ascontiguousarray(frames, dtype="<f4").tobytes())


def read_features(path) -> list:
    """Read (utt_id, frames) pairs back, in file order.  A repeated id
    raises ConfigError naming its entry."""
    f = BinaryReader(path, FEATURES_MAGIC)
    items: dict = {}
    for entry in range(1, f.unpack("<I")[0] + 1):
        utt_id = f.text()
        if utt_id in items:
            raise ConfigError("%s entry %d repeats utterance %r" % (path, entry, utt_id))
        items[utt_id] = f.tensor(f.unpack("<II"))
    f.end()
    return list(items.items())


# ---------------------------------------------------------------------------
# corpus directories: features.simf, the id<TAB>cell rows of source.tsv,
# target.tsv and boundaries.tsv, and the positional alignments.txt


@dataclass
class LoadedCorpus:
    """A corpus as read back from disk."""

    ids: list
    features: dict       # utt_id -> (T, D) array
    sources: dict        # utt_id -> text
    targets: dict        # utt_id -> text
    word_spans: dict     # utt_id -> list of WordSpan
    alignments: list = field(default_factory=list)


def _checked(rows) -> list:
    """The (id, cell) rows as a list, once each is known to read back
    unchanged: the id holds no tab or line break and appears once, the cell
    holds no line break, and both encode as UTF-8."""
    rows = list(rows)
    seen = set()
    for utt_id, cell in rows:
        try:
            (utt_id + cell).encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError("utterance %r: id or text is not UTF-8" % (utt_id,)) from None
        if any(c in utt_id for c in "\t\r\n") or "\r" in cell or "\n" in cell:
            raise ConfigError("utterance %r: tab or line break in the id, or line break "
                              "in its text" % (utt_id,))
        if utt_id in seen:
            raise ConfigError("utterance %r appears twice" % (utt_id,))
        seen.add(utt_id)
    return rows


def write_rows(path, rows) -> None:
    """Write (id, cell) rows as id<TAB>cell lines; every row is checked
    before the file is opened."""
    rows = _checked(rows)
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, cell in rows:
            f.write("%s\t%s\n" % (utt_id, cell))


def read_rows(path, parse=str) -> dict:
    """id -> parse(cell) for every id<TAB>cell line, in file order.  A line
    without a tab, a cell that parse rejects with ValueError, or a repeated
    id raises ConfigError naming the line."""
    table: dict = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line:
            continue
        try:
            utt_id, cell = line.split("\t", 1)
            value = parse(cell)
        except ValueError:
            raise ConfigError("%s line %d is not id<TAB>cell" % (path, lineno)) from None
        if utt_id in table:
            raise ConfigError("%s line %d repeats utterance %r" % (path, lineno, utt_id))
        table[utt_id] = value
    return table


def save_word_boundaries(path, table: dict) -> None:
    """Write each utterance's word extents as start:end cells joined by
    commas; an utterance may have no spans."""
    write_rows(path, ((utt_id, ",".join("%d:%d" % (sp.start, sp.end) for sp in spans))
                      for utt_id, spans in table.items()))


def _spans(cell: str) -> list:
    spans = []
    for extent in cell.split(",") if cell else ():
        start, end = extent.split(":")
        spans.append(WordSpan(int(start), int(end)))
    return spans


def load_word_boundaries(path) -> dict:
    """Read word extents."""
    return read_rows(path, _spans)


def save_alignments(path, aligns: list) -> None:
    """One line per utterance, in corpus order, of 0-based "i-j" pairs."""
    with open(path, "w", encoding="utf-8") as f:
        for a in aligns:
            cells = sorted((i - 1, t - 1) for i, t in a.pairs)
            f.write(" ".join("%d-%d" % c for c in cells) + "\n")


def load_alignments(path, ids: list, src_lens: list, tgt_lens: list) -> list:
    """Read alignments; line order must follow the given utterance order.
    A malformed pair, or one outside its sentence, is refused naming the line."""
    lines = read_text(path).splitlines()
    if len(lines) != len(ids):
        raise ConfigError("%s has %d lines for %d utterances" % (path, len(lines), len(ids)))
    out = []
    for lineno, (utt_id, src_len, tgt_len, line) in enumerate(
            zip(ids, src_lens, tgt_lens, lines), 1):
        try:
            pairs = frozenset((int(i) + 1, int(t) + 1)
                              for i, t in (cell.split("-") for cell in line.split()))
            out.append(AlignmentSet(utt_id, src_len, tgt_len, pairs))
        except ValueError as e:
            raise ConfigError("%s line %d, utterance %r: %s" % (path, lineno, utt_id, e)) from None
    return out


def save_corpus(out_dir, corpus: list) -> None:
    """Write features, texts, word boundaries, and alignments.  Every id,
    text and alignment (whose sides are its texts' word counts, as
    load_corpus reads them) is checked first, so a rejected corpus writes
    no file."""
    sources = _checked((u.utt_id, u.source) for u in corpus)
    targets = _checked((u.utt_id, u.target) for u in corpus)
    for u in corpus:
        sides = (u.alignment.src_len, u.alignment.tgt_len)
        words = (len(u.source.split()), len(u.target.split()))
        if sides != words:
            raise ConfigError("utterance %r: alignment is %dx%d, its texts have %dx%d words"
                              % (u.utt_id, *sides, *words))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_features(out / "features.simf", [(u.utt_id, u.frames) for u in corpus])
    write_rows(out / "source.tsv", sources)
    write_rows(out / "target.tsv", targets)
    save_word_boundaries(out / "boundaries.tsv",
                         {u.utt_id: u.words for u in corpus})
    save_alignments(out / "alignments.txt", [u.alignment for u in corpus])


def load_corpus(data_dir) -> LoadedCorpus:
    """Read a corpus directory written by save_corpus; every feature id
    needs a source row and a target row."""
    root = Path(data_dir)
    items = read_features(root / "features.simf")
    ids = [utt_id for utt_id, _ in items]
    features = dict(items)
    sources = read_rows(root / "source.tsv")
    targets = read_rows(root / "target.tsv")
    spans = load_word_boundaries(root / "boundaries.tsv")
    for side, texts in (("source", sources), ("target", targets)):
        missing = [i for i in ids if i not in texts]
        if missing:
            raise ConfigError("no %s text for %s" % (side, ", ".join(missing[:3])))
    aligns = []
    align_path = root / "alignments.txt"
    if align_path.exists():
        aligns = load_alignments(align_path, ids,
                                 [len(sources[i].split()) for i in ids],
                                 [len(targets[i].split()) for i in ids])
    return LoadedCorpus(ids=ids, features=features, sources=sources,
                        targets=targets, word_spans=spans, alignments=aligns)
