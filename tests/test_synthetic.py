"""Synthetic task generator and corpus file round trips."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamst import cli
from streamst.errors import ConfigError
from streamst.metrics import AlignmentSet
from streamst.segmentation import WordSpan
from streamst.synthetic import (FEATURES_MAGIC, SOURCE_ALPHABET, SyntheticSpec,
                                Utterance, base_vectors, generate_corpus,
                                load_corpus, read_features, save_corpus,
                                split_holdout, write_features)


# ---------------------------------------------------------------------------
# task definition


def test_cipher_shifts_and_uppercases():
    spec = SyntheticSpec()
    assert spec.cipher_char("a") == "D"
    assert spec.cipher_char("b") == "E"
    assert spec.cipher_char("q") == "T"
    assert spec.cipher_char("r") == "A"   # wraps around
    assert spec.cipher_char("t") == "C"
    assert spec.cipher_char(" ") == " "
    assert spec.cipher_word("abt") == "DEC"


def test_cipher_is_a_bijection_on_the_alphabet():
    spec = SyntheticSpec()
    images = {spec.cipher_char(c) for c in spec.alphabet}
    assert images == set(spec.target_vocab.strip())


def test_target_vocab_is_uppercase_alphabet_plus_space():
    assert SyntheticSpec().target_vocab == "ABCDEFGHIJKLMNOPQRST "


def test_spec_rejects_bad_settings():
    with pytest.raises(ConfigError):
        SyntheticSpec(frames_per_symbol=3)
    with pytest.raises(ConfigError):
        SyntheticSpec(alphabet="aab")
    with pytest.raises(ConfigError):
        SyntheticSpec(alphabet="ab cd")
    with pytest.raises(ConfigError):
        SyntheticSpec(feat_dim=2)


def test_base_vectors_depend_only_on_the_task_seed():
    a = base_vectors(SyntheticSpec(seed=5))
    b = base_vectors(SyntheticSpec(seed=5, noise_sigma=0.7, frames_per_symbol=12))
    c = base_vectors(SyntheticSpec(seed=6))
    assert set(a) == set(SOURCE_ALPHABET + " ")
    for ch in a:
        assert np.array_equal(a[ch], b[ch])
    assert any(not np.array_equal(a[ch], c[ch]) for ch in a)


# ---------------------------------------------------------------------------
# corpus generation


@pytest.fixture()
def small_spec():
    return SyntheticSpec(frames_per_symbol=4, feat_dim=4, seed=11)


def test_sources_use_requested_symbol_budget(small_spec):
    corpus = generate_corpus(small_spec, 40, min_len=3, max_len=17, seed=1)
    for utt in corpus:
        assert 3 <= len(utt.source) <= 17
        for word in utt.source.split(" "):
            assert 1 <= len(word) <= 7
            assert set(word) <= set(small_spec.alphabet)
        assert "  " not in utt.source
        assert not utt.source.startswith(" ") and not utt.source.endswith(" ")


def test_frames_shape_matches_symbol_count(small_spec):
    corpus = generate_corpus(small_spec, 10, 4, 12, seed=2)
    for utt in corpus:
        assert utt.frames.shape == (len(utt.source) * 4, 4)
        assert utt.frames.dtype == np.float32


def test_word_spans_tile_the_frame_axis(small_spec):
    corpus = generate_corpus(small_spec, 30, 2, 20, seed=3)
    for utt in corpus:
        spans = utt.words
        assert spans[0].start == 0
        assert spans[-1].end == utt.n_frames
        for left, right in zip(spans, spans[1:]):
            assert left.end == right.start
        fps = small_spec.frames_per_symbol
        for j, sp in enumerate(spans):
            piece = utt.source[sp.start // fps:sp.end // fps]
            assert piece.rstrip(" ") == utt.source.split(" ")[j]


def test_noise_free_frames_equal_the_symbol_means(small_spec):
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=4, seed=11,
                         noise_sigma=0.0)
    bases = base_vectors(spec)
    (utt,) = generate_corpus(spec, 1, 6, 6, seed=4)
    for p, ch in enumerate(utt.source):
        for r in range(4):
            assert np.array_equal(utt.frames[4 * p + r], bases[ch])


def test_monotone_targets_are_cipher_of_source_in_order(small_spec):
    corpus = generate_corpus(small_spec, 12, 5, 15, seed=5)
    for utt in corpus:
        assert not utt.reversed_order
        expect = " ".join(small_spec.cipher_word(w) for w in utt.source.split(" "))
        assert utt.target == expect
        n = len(utt.source.split(" "))
        assert utt.alignment.pairs == frozenset((j + 1, j + 1) for j in range(n))


def test_reversed_targets_flip_word_order_and_alignment(small_spec):
    corpus = generate_corpus(small_spec, 12, 8, 18, reversal_fraction=1.0, seed=6)
    for utt in corpus:
        assert utt.reversed_order
        words = utt.source.split(" ")
        expect = " ".join(small_spec.cipher_word(w) for w in reversed(words))
        assert utt.target == expect
        n = len(words)
        assert utt.alignment.pairs == frozenset((j + 1, n - j) for j in range(n))


def test_reversal_fraction_mixes_both_kinds(small_spec):
    corpus = generate_corpus(small_spec, 60, 8, 18, reversal_fraction=0.4, seed=7)
    flags = [u.reversed_order for u in corpus]
    assert any(flags) and not all(flags)


def test_generation_is_deterministic(small_spec):
    a = generate_corpus(small_spec, 8, 4, 10, reversal_fraction=0.3, seed=9)
    b = generate_corpus(small_spec, 8, 4, 10, reversal_fraction=0.3, seed=9)
    for x, y in zip(a, b):
        assert x.source == y.source and x.target == y.target
        assert np.array_equal(x.frames, y.frames)
        assert x.alignment == y.alignment


def test_corpus_seed_changes_text_but_not_symbol_means():
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=4, seed=11,
                         noise_sigma=0.0)
    a = generate_corpus(spec, 6, 6, 12, seed=1)
    b = generate_corpus(spec, 6, 6, 12, seed=2)
    assert [u.source for u in a] != [u.source for u in b]
    bases = base_vectors(spec)
    for utt in b:
        assert np.array_equal(utt.frames[0], bases[utt.source[0]])


def test_default_rate_bounds_frame_counts():
    spec = SyntheticSpec(seed=3)
    corpus = generate_corpus(spec, 1000, 5, 40, seed=3)
    for utt in corpus:
        assert utt.n_frames == len(utt.source) * 8
        assert 40 <= utt.n_frames <= 320


def test_generate_rejects_bad_arguments(small_spec):
    with pytest.raises(ConfigError):
        generate_corpus(small_spec, 0, 1, 5)
    with pytest.raises(ConfigError):
        generate_corpus(small_spec, 3, 6, 5)
    with pytest.raises(ConfigError):
        generate_corpus(small_spec, 3, 0, 5)
    with pytest.raises(ConfigError):
        generate_corpus(small_spec, 3, 1, 5, reversal_fraction=1.5)


def test_split_holdout_takes_the_id_sorted_tail(small_spec):
    corpus = generate_corpus(small_spec, 20, 4, 8, seed=3)
    train, held = split_holdout(corpus, 0.1)
    assert len(held) == 2 and len(train) == 18
    assert [u.utt_id for u in held] == ["utt0018", "utt0019"]
    assert [u.utt_id for u in train] == ["utt%04d" % i for i in range(18)]
    all_train, none = split_holdout(corpus, 0.0)
    assert len(all_train) == 20 and none == []
    only, empty = split_holdout(corpus[:1], 0.5)
    assert len(only) == 1 and empty == []
    with pytest.raises(ConfigError):
        split_holdout(corpus, 1.0)


def test_tiny_holdout_fraction_still_holds_one_out(small_spec):
    corpus = generate_corpus(small_spec, 5, 4, 8, seed=3)
    train, held = split_holdout(corpus, 0.1)
    assert len(held) == 1 and len(train) == 4


# ---------------------------------------------------------------------------
# feature files


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    items = [("utt0000", rng.normal(size=(7, 3)).astype(np.float32)),
             ("utt0001", rng.normal(size=(12, 3)).astype(np.float32))]
    path = tmp_path / "features.simf"
    write_features(path, items)
    back = read_features(path)
    assert [i for i, _ in back] == ["utt0000", "utt0001"]
    for (_, a), (_, b) in zip(items, back):
        assert np.array_equal(a, b)


def test_feature_file_write_is_byte_stable(tmp_path):
    items = [("u", np.arange(12, dtype=np.float32).reshape(4, 3))]
    write_features(tmp_path / "a.simf", items)
    write_features(tmp_path / "b.simf", items)
    assert (tmp_path / "a.simf").read_bytes() == (tmp_path / "b.simf").read_bytes()
    assert (tmp_path / "a.simf").read_bytes()[:4] == FEATURES_MAGIC


def test_feature_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.simf"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ConfigError, match="magic"):
        read_features(path)


def test_feature_file_rejects_truncation(tmp_path):
    path = tmp_path / "features.simf"
    write_features(path, [("u", np.ones((5, 2), dtype=np.float32))])
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.simf"
    clipped.write_bytes(blob[:-6])
    with pytest.raises(ConfigError, match="truncated"):
        read_features(clipped)


def test_feature_file_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "features.simf"
    write_features(path, [("u", np.ones((5, 2), dtype=np.float32))])
    padded = tmp_path / "padded.simf"
    padded.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ConfigError, match="trailing"):
        read_features(padded)


def test_feature_file_rejects_a_repeated_id(tmp_path):
    """A hand-written file listing u, v, u: the third entry names the repeat,
    and loading the corpus around it fails the same way."""
    def entry(utt_id, frames):
        return (struct.pack("<I", len(utt_id)) + utt_id.encode() + struct.pack("<II", frames, 2)
                + np.ones((frames, 2), dtype="<f4").tobytes())

    data = tmp_path / "data"
    data.mkdir()
    (data / "features.simf").write_bytes(FEATURES_MAGIC + struct.pack("<I", 3)
                                         + entry("u", 4) + entry("v", 4) + entry("u", 8))
    for name in ("source.tsv", "target.tsv"):
        (data / name).write_text("u\tab\nv\tab\n")
    (data / "boundaries.tsv").write_text("u\t0:4\nv\t0:4\n")
    with pytest.raises(ConfigError, match=r"features\.simf entry 3 repeats utterance 'u'"):
        read_features(data / "features.simf")
    with pytest.raises(ConfigError, match="entry 3 repeats utterance 'u'"):
        load_corpus(data)


# ---------------------------------------------------------------------------
# corpus directories


def test_corpus_directory_round_trip(tmp_path, small_spec):
    corpus = generate_corpus(small_spec, 9, 5, 14, reversal_fraction=0.5, seed=8)
    save_corpus(tmp_path / "data", corpus)
    loaded = load_corpus(tmp_path / "data")
    assert loaded.ids == [u.utt_id for u in corpus]
    for utt in corpus:
        assert np.array_equal(loaded.features[utt.utt_id], utt.frames)
        assert loaded.sources[utt.utt_id] == utt.source
        assert loaded.targets[utt.utt_id] == utt.target
        extents = [(sp.start, sp.end) for sp in loaded.word_spans[utt.utt_id]]
        assert extents == [(sp.start, sp.end) for sp in utt.words]
    assert [a.pairs for a in loaded.alignments] == [u.alignment.pairs for u in corpus]


def test_corpus_save_is_deterministic(tmp_path, small_spec):
    corpus = generate_corpus(small_spec, 4, 5, 9, seed=8)
    save_corpus(tmp_path / "one", corpus)
    save_corpus(tmp_path / "two", corpus)
    for name in ("features.simf", "source.tsv", "target.tsv",
                 "boundaries.tsv", "alignments.txt"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_load_corpus_reports_missing_targets(tmp_path, small_spec):
    corpus = generate_corpus(small_spec, 3, 5, 9, seed=8)
    save_corpus(tmp_path / "data", corpus)
    (tmp_path / "data" / "target.tsv").write_text("utt0000\tABC\n")
    with pytest.raises(ConfigError, match="utt0001"):
        load_corpus(tmp_path / "data")


def test_load_corpus_reports_missing_sources(tmp_path, small_spec):
    corpus = generate_corpus(small_spec, 3, 5, 9, seed=8)
    save_corpus(tmp_path / "data", corpus)
    (tmp_path / "data" / "source.tsv").write_text("utt0000\tabc\n")
    with pytest.raises(ConfigError, match="no source text for utt0001"):
        load_corpus(tmp_path / "data")


def test_generated_corpus_loads_back_equal(tmp_path):
    """Spans, alignments and the reordered flag that training reads agree
    between a generated corpus and the same corpus loaded back.  One-word
    utterances drawn for reversal keep a diagonal alignment, so they count
    as in order both ways."""
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=4)
    corpus = generate_corpus(spec, 40, 1, 6, reversal_fraction=1.0, seed=0)
    assert any(len(u.source.split()) == 1 for u in corpus)
    save_corpus(tmp_path / "data", corpus)
    loaded = load_corpus(tmp_path / "data")
    assert loaded.ids == [u.utt_id for u in corpus]
    assert [loaded.word_spans[u.utt_id] for u in corpus] == [u.words for u in corpus]
    assert loaded.alignments == [u.alignment for u in corpus]
    assert [e.reversed_order for e in cli._examples_of(loaded)] == \
        [u.reversed_order for u in corpus]


def readable_row(utt_id: str, text: str) -> bool:
    """True when an id<TAB>text row reads back as written."""
    try:
        (utt_id + text).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return not any(c in utt_id for c in "\t\r\n") and not any(c in text for c in "\r\n")


def has_a_word(text: str) -> bool:
    return len(text.split()) > 0


ANY_TEXT = st.text(st.characters(exclude_categories=[]))
# an utterance's alignment needs a word on each side
ANY_WORDS = ANY_TEXT.filter(has_a_word)
# how far an alignment side lies from its text's word count
SIDE_ERROR = st.sampled_from([0, 0, 0, -1, 1])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(ANY_TEXT, ANY_WORDS, ANY_WORDS, SIDE_ERROR, SIDE_ERROR),
                     min_size=1, max_size=4))
@example(rows=[("utt0", "ab cd", "DE FG", 0, 0), ("utt0", "x", "Y", 0, 0)])
@example(rows=[("utt0", "ab", "DE", 0, 0), ("u" + chr(0xDC00), "x", "Y", 0, 0)])
@example(rows=[("a\tb", "x", "Y", 0, 0)])
@example(rows=[("utt0", "ab", "DE\nFG", 0, 0)])
@example(rows=[("utt0", "ab cd", "DE FG", 1, 0)])
@example(rows=[("utt0", "ab", "DE FG", 0, 0)])
def test_corpus_directory_round_trips_or_writes_nothing(tmp_path_factory, rows):
    """save_corpus refuses the corpus and writes nothing, or it loads back
    equal field for field, and training reads the same reordered flags."""
    out = tmp_path_factory.mktemp("corpus") / "data"
    corpus = []
    for n, (utt_id, source, target, d_src, d_tgt) in enumerate(rows):
        n_src = max(1, len(source.split()) + d_src)
        n_tgt = max(1, len(target.split()) + d_tgt)
        corpus.append(Utterance(
            utt_id, source, target, np.full((4 + n, 3), n, dtype=np.float32),
            [WordSpan(0, 2), WordSpan(2, 4 + n)],
            AlignmentSet(utt_id, n_src, n_tgt, frozenset({(1, 1), (n_src, n_tgt)}))))
    ids = [row[0] for row in rows]
    try:
        save_corpus(out, corpus)
    except ConfigError:
        assert len(set(ids)) < len(ids) or not all(
            readable_row(i, text) for i, s, t, _, _ in rows for text in (s, t)) or any(
            (u.alignment.src_len, u.alignment.tgt_len)
            != (len(u.source.split()), len(u.target.split())) for u in corpus)
        assert not out.exists()
        return
    loaded = load_corpus(out)
    assert loaded.ids == ids
    assert loaded.sources == {u.utt_id: u.source for u in corpus}
    assert loaded.targets == {u.utt_id: u.target for u in corpus}
    for utt in corpus:
        assert np.array_equal(loaded.features[utt.utt_id], utt.frames)
        assert loaded.word_spans[utt.utt_id] == utt.words
    assert loaded.alignments == [u.alignment for u in corpus]
    assert [e.reversed_order for e in cli._examples_of(loaded)] == \
        [u.reversed_order for u in corpus]
