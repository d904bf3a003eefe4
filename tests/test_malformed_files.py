"""Every file format the package reads, damaged: a reader either loads the
file or refuses it with a ConfigError that names the file.  No other
exception may escape, whatever the damage."""

import json
import shutil
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from streamst import cli
from streamst import model as md
from streamst.decoder import DecodeTrace, read_traces, write_traces
from streamst.encoding import EncodeCost
from streamst.errors import ConfigError
from streamst.synthetic import (SyntheticSpec, generate_corpus, load_corpus, read_features,
                                save_corpus, write_features)

NON_UTF8 = st.integers(0x80, 0xFF)  # no such byte can be inserted into UTF-8 and leave it UTF-8


def loads_or_names(path, load):
    """load(path) returns, or raises a ConfigError naming path."""
    try:
        load(path)
    except ConfigError as e:
        assert str(path) in str(e)


def refused_naming(path, load):
    with pytest.raises(ConfigError) as info:
        load(path)
    assert str(path) in str(info.value)


def inserted(blob: bytes, pos: int, extra: bytes) -> bytes:
    pos %= len(blob) + 1
    return blob[:pos] + extra + blob[pos:]


def replaced(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each format, and a scratch directory to damage
    copies in.  Ids and texts hold multi-byte characters, so cuts and
    replacements land inside them too."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    write_features(root / "features.simf",
                   [("ué", rng.normal(size=(3, 2)).astype(np.float32)),
                    ("v", rng.normal(size=(2, 2)).astype(np.float32))])
    cfg = md.ModelConfig(feat_dim=4, vgg_channels=(1, 1), enc_layers=1, hidden=1,
                         attn_dim=1, embed_dim=1, vocab="aé ")
    md.save_checkpoint(root / "model.ckpt", cfg, md.create_parameters(cfg, seed=0))
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=4)
    save_corpus(root / "corpus", generate_corpus(spec, 3, 3, 7, reversal_fraction=0.5, seed=2))
    traces = [DecodeTrace("ué", "é b", (8, 12), ["é", " ", "b"], [80.0, 120.0, 120.0],
                          EncodeCost(12, 2, 7), False, 1),
              DecodeTrace("v", "", (4,), [], [], EncodeCost(4, 1, 3), True, 0)]
    (root / "sweep").mkdir()
    write_traces(root / "sweep" / "trace.jsonl", traces)
    index = {"tokenize": "word", "seed": 0,
             "jobs": [{"strategy": "ulstm-reencode", "segmentation": "fixed", "k": 8, "s": 4,
                       "N": 1, "trace": "trace.jsonl", "utterances": 2}]}
    (root / "sweep" / "sweep.json").write_text(json.dumps(index, indent=2) + "\n")
    (root / "config.json").write_text(json.dumps({"utterances": 5, "min_len": 3,
                                                  "feature_scale": 2.5}) + "\n")
    return root, tmp_path_factory.mktemp("damaged")


def damaged_copy(files, name: str, blob: bytes):
    """A copy of name, and of the directory holding it, with name's bytes
    replaced by blob."""
    root, work = files
    top = name.split("/")[0]
    if (root / top).is_dir():
        shutil.rmtree(work / top, ignore_errors=True)
        shutil.copytree(root / top, work / top)
    (work / name).write_bytes(blob)
    return work / name


def load_corpus_around(path):
    load_corpus(path.parent)


def load_sweep_around(path):
    cli._read_sweep(path.parent)


def load_config(path):
    cli._apply_config_file(["generate", "--config", str(path), "--out", "x"])


BINARY = [("features.simf", read_features), ("model.ckpt", md.load_checkpoint)]

TEXT = [("corpus/source.tsv", load_corpus_around), ("corpus/target.tsv", load_corpus_around),
        ("corpus/boundaries.tsv", load_corpus_around),
        ("corpus/alignments.txt", load_corpus_around), ("sweep/trace.jsonl", read_traces),
        ("sweep/sweep.json", load_sweep_around), ("config.json", load_config)]

JSON = [("sweep/sweep.json", load_sweep_around), ("config.json", load_config)]


def case_ids(cases):
    return [name.split("/")[-1] for name, _ in cases]


@pytest.mark.parametrize("name, load", BINARY + TEXT, ids=case_ids(BINARY + TEXT))
def test_valid_files_load(files, name, load):
    load(damaged_copy(files, name, (files[0] / name).read_bytes()))


@pytest.mark.parametrize("name, load", BINARY, ids=case_ids(BINARY))
def test_every_truncation_of_a_binary_file_is_refused(files, name, load):
    blob = (files[0] / name).read_bytes()
    for cut in range(len(blob)):
        path = damaged_copy(files, name, blob[:cut])
        with pytest.raises(ConfigError, match="magic|truncated") as info:
            load(path)
        assert str(path) in str(info.value)


@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("name, load", BINARY, ids=case_ids(BINARY))
@given(edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                      min_size=1, max_size=4),
       cut=st.none() | st.integers(0, 1 << 16))
def test_binary_file_with_bytes_replaced(files, name, load, edits, cut):
    """Replaced bytes in the header can claim any field value, in an id or
    the vocabulary any text; the file may also end early."""
    blob = replaced((files[0] / name).read_bytes(), edits)
    path = damaged_copy(files, name, blob if cut is None else blob[:cut % len(blob)])
    loads_or_names(path, load)


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name, load", TEXT, ids=case_ids(TEXT))
@given(pos=st.integers(0, 1 << 16), byte=NON_UTF8)
def test_text_file_with_a_byte_that_is_not_utf8(files, name, load, pos, byte):
    path = damaged_copy(files, name, inserted((files[0] / name).read_bytes(), pos, bytes([byte])))
    refused_naming(path, load)


@pytest.mark.parametrize("name, load", JSON, ids=case_ids(JSON))
def test_every_truncation_of_a_json_file(files, name, load):
    """Only the cut that drops the final newline leaves valid json."""
    blob = (files[0] / name).read_bytes()
    for cut in range(len(blob)):
        loads_or_names(damaged_copy(files, name, blob[:cut]), load)


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name, load", JSON, ids=case_ids(JSON))
@given(pos=st.integers(0, 1 << 16), junk=st.sampled_from(['"', "{", "]", ",,", "nul", "1e"]))
def test_json_file_with_junk_inserted(files, name, load, pos, junk):
    """Junk that leaves the text valid json, inside a string, is not
    malformed json and is skipped."""
    blob = inserted((files[0] / name).read_bytes(), pos, junk.encode())
    try:
        json.loads(blob)
        assume(False)
    except ValueError:
        pass
    refused_naming(damaged_copy(files, name, blob), load)


def test_a_zero_width_attention_header_is_refused(files, tmp_path):
    blob = bytearray((files[0] / "model.ckpt").read_bytes())
    struct.pack_into("<I", blob, len(md.CHECKPOINT_MAGIC) + 24, 0)  # attn_dim
    path = tmp_path / "flat.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="flat.ckpt: attn_dim must be positive, got 0"):
        md.load_checkpoint(path)


def test_a_huge_layer_count_is_refused_within_a_fixed_budget(files, tmp_path):
    """Shapes are made one at a time, so a checkpoint that claims 2**32 - 1
    encoder layers is refused at its first missing tensor, without first
    building every shape the header implies."""
    blob = bytearray((files[0] / "model.ckpt").read_bytes())
    struct.pack_into("<I", blob, len(md.CHECKPOINT_MAGIC) + 12, 2 ** 32 - 1)  # enc_layers
    path = tmp_path / "huge.ckpt"
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    begin = time.perf_counter()
    try:
        with pytest.raises(ConfigError, match="truncated"):
            md.load_checkpoint(path)
        seconds, (_, peak) = time.perf_counter() - begin, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seconds < 2.0 and peak < 4 << 20, (seconds, peak)
