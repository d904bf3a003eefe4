"""The benchmark under perfbench/ still runs against the program: its output
checks pass their self-test, and its per-layer hooks still see the layers."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamst import cli, training
from streamst import decoder as dec
from streamst import model as md
from streamst.encoding import STRATEGIES
from streamst.segmentation import fixed_plan
from streamst.synthetic import SyntheticSpec, generate_corpus, load_corpus, save_corpus

import golden
import helpers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py as a module of its own, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_checks_accept_real_and_reject_wrong_outputs():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def test_recorder_hooks_see_encoder_and_decoder_calls():
    rec = load_perfbench("tracing").Recorder()
    frames = np.random.default_rng(0).standard_normal((40, 8)).astype(np.float32)
    policy = dec.DecodePolicy(write_tokens=1, max_target_factor=0.0, max_target_slack=3)
    try:
        rec.install()
        for strategy in STRATEGIES:
            cfg = md.ModelConfig(feat_dim=8, vgg_channels=(2, 2), enc_layers=2, hidden=4,
                                 attn_dim=4, embed_dim=4, vocab="AB",
                                 bidirectional=strategy.startswith("blstm"))
            dec.simulate(frames, fixed_plan(40, 16, 8, "tiny"), policy,
                         md.create_parameters(cfg, seed=0), cfg, strategy)
    finally:
        rec.unpatch()
    assert dec.simulate.__module__ == "streamst.decoder"  # the patches are gone
    for strategy in STRATEGIES:
        assert rec.counter("model.encoder_forward.positions", strategy) > 0, strategy
        assert rec.n_calls("model.decode_step", strategy) > 0, strategy


def test_recorder_hooks_see_a_sweep(tmp_path):
    """The sweep workload's figures come from hooks on the names cli calls:
    run_sweep, the three plan builders, simulate, write_traces and
    tradeoff_table."""
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=6)
    corpus = helpers.as_loaded(generate_corpus(spec, 3, 4, 6, seed=1))
    cfg = md.ModelConfig(feat_dim=6, vgg_channels=(2, 2), enc_layers=1, hidden=4, attn_dim=4,
                         embed_dim=4, vocab=spec.target_vocab)
    jobs = [{"strategy": "ulstm-overlap", "segmentation": seg, "k": k, "s": s, "N": 1}
            for seg, k, s in (("fixed", 8, 8), ("words", 0, 0), ("random", 4, 8))]
    rec = load_perfbench("tracing").Recorder()
    try:
        rec.install()
        cli.run_sweep(jobs, corpus, md.create_parameters(cfg, seed=0), cfg, tmp_path)
    finally:
        rec.unpatch()
    assert cli.run_sweep.__module__ == "streamst.cli"  # the patches are gone
    assert rec.n_calls("cli.run_sweep") == 1
    assert rec.n_calls("segmentation.plan") == len(jobs) * len(corpus.ids)
    assert rec.counter("segmentation.reads") > 0
    assert rec.n_calls("cli.write_traces") == len(jobs)
    assert rec.counter("cli.trace_bytes") > 0
    assert rec.n_calls("metrics.tradeoff_table") == 1
    assert rec.n_calls("decoder.simulate", "ulstm-overlap") == len(jobs) * len(corpus.ids)


def test_recorder_hooks_see_training():
    """The train workload's figures come from hooks on training.train,
    training.utterance_loss, model.decode_step and autodiff.backward, whose
    counter reads each tape's length."""
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=6)
    corpus = generate_corpus(spec, 3, 2, 4, seed=1)
    cfg = md.ModelConfig(feat_dim=6, vgg_channels=(2, 2), enc_layers=1, hidden=4, attn_dim=4,
                         embed_dim=4, vocab=spec.target_vocab)
    tcfg = training.TrainConfig(epochs=1, batch_size=2, optimizer="adam", holdout_fraction=0.0)
    rec = load_perfbench("tracing").Recorder()
    try:
        rec.install()
        training.train(md.create_parameters(cfg, seed=0), cfg, corpus, tcfg)
    finally:
        rec.unpatch()
    assert training.train.__module__ == "streamst.training"  # the patches are gone
    assert rec.n_calls("training.train") == 1
    assert rec.n_calls("training.utterance_loss") == len(corpus)
    assert rec.n_calls("autodiff.backward") == len(corpus)
    assert rec.n_calls("model.decode_step") >= sum(len(u.target) + 1 for u in corpus)
    assert rec.counter("autodiff.tape_ops") > 0


def test_sweep_corpus_saves_and_loads_back(tmp_path):
    """The sweep workload saves seeded_corpus, whose utterances are renamed
    after generation while their alignments keep the generated ids, and
    loads it back."""
    w = load_perfbench("workloads")
    corpus = w.seeded_corpus(w.SWEEP_STREAM, 3)
    save_corpus(tmp_path / "data", corpus)
    loaded = load_corpus(tmp_path / "data")
    assert loaded.ids == ["len%02d_%d" % (n, i) for n in w.CORPUS_SYMBOLS
                          for i in range(w.CORPUS_PER_LENGTH)]
    assert loaded.sources == {u.utt_id: u.source for u in corpus}


def test_train_and_sweep_outputs_have_the_pinned_bits(tmp_path):
    """One train and one sweep round at seed 3 give the committed parameter
    digest, epoch losses and sweep files (wall_ns blanked) bit for bit.
    Regenerate with `python3 tests/golden.py --write` after a change that
    means to alter them."""
    pinned = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    here = golden.platform()
    if here != pinned["platform"]:
        pytest.skip("outputs were pinned on another platform; not comparable here: "
                    + "; ".join("%s is %r, pinned on %r" % (key, here.get(key), value)
                                for key, value in pinned["platform"].items()
                                if here.get(key) != value))
    got = golden.outputs(load_perfbench("workloads"), tmp_path)
    want = pinned["outputs"]
    assert got["train_digest"] == want["train_digest"]
    assert got["epoch_losses"] == want["epoch_losses"]
    assert got["sweep_files"] == want["sweep_files"]
