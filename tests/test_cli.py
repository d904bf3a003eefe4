"""End-to-end command line behavior, run in process."""

import csv
import dataclasses
import json
import logging
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamst import cli, training
from streamst.decoder import offline_trace, read_traces
from streamst.encoding import STRATEGIES
from streamst.metrics import CONFIG_FIELDS, TRADEOFF_COLUMNS
from streamst.errors import ConfigError, InsufficientFramesError
from streamst.model import load_checkpoint
from streamst.segmentation import WordSpan
from streamst.synthetic import (SyntheticSpec, generate_corpus, load_corpus, read_features,
                                save_corpus, split_holdout, write_features)

GEN_ARGS = ["--utterances", "10", "--min-len", "4", "--max-len", "8",
            "--seed", "1", "--frames-per-symbol", "4", "--feat-dim", "6"]

TRAIN_ARGS = ["--epochs", "1", "--batch-size", "4", "--holdout-fraction", "0.2",
              "--seed", "1", "--hidden", "6", "--attn-dim", "6",
              "--embed-dim", "6", "--enc-layers", "1", "--vgg-channels", "2", "2"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "data"
    assert cli.main(["generate", "--out", str(out)] + GEN_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("model") / "tiny.ckpt"
    assert cli.main(["train", "--data", str(corpus_dir),
                     "--model", str(path)] + TRAIN_ARGS) == 0
    return path


def canonical_csv(path):
    """Rows with the wall-clock column blanked."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(TRADEOFF_COLUMNS)
    return [row[:-1] for row in rows]


def canonical_traces(path):
    """Trace lines with wall-clock readings blanked."""
    out = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "cost" in obj:
            obj["cost"].pop("wall_ns")
        out.append(obj)
    return out


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_a_complete_corpus(corpus_dir, capsys):
    for name in ("features.simf", "source.tsv", "target.tsv",
                 "boundaries.tsv", "alignments.txt", "task.json"):
        assert (corpus_dir / name).exists(), name


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["generate", "--out", str(a)] + GEN_ARGS) == 0
    assert cli.main(["generate", "--out", str(b)] + GEN_ARGS) == 0
    assert (a / "features.simf").read_bytes() == (b / "features.simf").read_bytes()
    assert (a / "target.tsv").read_bytes() == (b / "target.tsv").read_bytes()


def test_task_file_regenerates_the_features(tmp_path):
    """task.json records every SyntheticSpec field, feature_scale too."""
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--feature-scale", "3"] + GEN_ARGS) == 0
    spec = SyntheticSpec(**json.loads((data / "task.json").read_text()))
    write_features(tmp_path / "again.simf", [(u.utt_id, u.frames)
                                             for u in generate_corpus(spec, 10, 4, 8, seed=1)])
    assert (tmp_path / "again.simf").read_bytes() == (data / "features.simf").read_bytes()


# ---------------------------------------------------------------------------
# train / translate


def test_train_exempts_reversed_utterances_from_the_guide(tmp_path, monkeypatch):
    """The loaded alignment marks an utterance as reversed; the attention
    guide must skip exactly those."""
    gen = ["--utterances", "12", "--min-len", "8", "--max-len", "12", "--seed", "5",
           "--frames-per-symbol", "4", "--feat-dim", "6", "--reversal-fraction", "0.5"]
    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data)] + gen) == 0
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=6)
    reversed_targets = {u.target for u in generate_corpus(spec, 12, 8, 12, 0.5, seed=5)
                        if u.reversed_order}
    assert 0 < len(reversed_targets) < 12
    weights = {}
    real_loss = training.utterance_loss

    def spy(frames, target, params, cfg, guide_weight=0.0):
        weights[target] = guide_weight
        return real_loss(frames, target, params, cfg, guide_weight)

    monkeypatch.setattr(training, "utterance_loss", spy)
    assert cli.main(["train", "--data", str(data), "--model", str(tmp_path / "m.ckpt"),
                     "--guide-epochs", "1", "--guide-weight", "0.5"] + TRAIN_ARGS) == 0
    assert len(weights) == 10  # two of the twelve are held out
    for target, weight in weights.items():
        assert weight == (0.0 if target in reversed_targets else 0.5), target


@pytest.mark.parametrize("flag, value, field", [
    ("--feature-scale", "nan", "feature_scale"), ("--noise-sigma", "nan", "noise_sigma"),
    ("--noise-sigma", "-1", "noise_sigma"),
])
def test_generate_refuses_features_no_model_can_read(tmp_path, capsys, flag, value, field):
    out = tmp_path / "data"
    assert cli.main(["generate", "--out", str(out), flag, value] + GEN_ARGS) == 2
    assert "error: %s must be" % field in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_negative_grad_clip(corpus_dir, tmp_path, capsys):
    """grad_clip -1 would turn every update into gradient ascent."""
    path = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", str(corpus_dir), "--model", str(path),
                     "--grad-clip", "-1"] + TRAIN_ARGS) == 2
    assert "error: grad_clip must be positive, got -1.0" in capsys.readouterr().err
    assert not path.exists()


def test_train_writes_a_loadable_checkpoint(model_path):
    cfg, params = load_checkpoint(model_path)
    assert cfg.hidden == 6 and not cfg.bidirectional
    assert set("ABCDEFGHIJKLMNOPQRST ") >= set(cfg.vocab)


def test_translate_scores_and_writes_hypotheses(corpus_dir, model_path,
                                                tmp_path, capsys):
    out = tmp_path / "hyps.tsv"
    rc = cli.main(["translate", "--data", str(corpus_dir),
                   "--model", str(model_path), "--out", str(out)])
    assert rc == 0
    assert "BLEU" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert all("\t" in line for line in lines)


def test_missing_model_fails_naming_the_path(corpus_dir, tmp_path, capsys):
    missing = tmp_path / "nope.ckpt"
    rc = cli.main(["translate", "--data", str(corpus_dir),
                   "--model", str(missing)])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_missing_corpus_fails_naming_the_path(model_path, tmp_path, capsys):
    missing = tmp_path / "absent"
    rc = cli.main(["translate", "--data", str(missing),
                   "--model", str(model_path)])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def run_simulate(corpus_dir, model_path, out, extra):
    return cli.main(["simulate", "--data", str(corpus_dir), "--model",
                     str(model_path), "--out", str(out)] + extra)


def test_simulate_writes_traces_index_and_table(corpus_dir, model_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = run_simulate(corpus_dir, model_path, out,
                      ["--strategy", "ulstm-reencode", "ulstm-overlap",
                       "--k", "8", "--s", "16"])
    assert rc == 0
    rows = canonical_csv(out / "tradeoff.csv")
    assert len(rows) == 3  # header + one row per strategy
    assert {row[0] for row in rows[1:]} == {"ulstm-reencode", "ulstm-overlap"}
    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["jobs"]) == 2
    summaries = capsys.readouterr().out.splitlines()[1:]
    assert len(summaries) == 2
    for entry, summary in zip(sweep["jobs"], summaries):
        assert entry["utterances"] == 10
        truncated = sum(r.truncated for r in read_traces(out / entry["trace"]))
        assert summary.startswith("  %s fixed k=8 s=16 N=1  BLEU " % entry["strategy"])
        assert summary.endswith("  truncated %d" % truncated)


def test_simulate_single_read_matches_offline_translation(corpus_dir, model_path,
                                                          tmp_path):
    out = tmp_path / "sweep"
    hyps = tmp_path / "hyps.tsv"
    assert cli.main(["translate", "--data", str(corpus_dir), "--model",
                     str(model_path), "--out", str(hyps)]) == 0
    assert run_simulate(corpus_dir, model_path, out,
                        ["--k", "99999", "--s", "8"]) == 0
    offline = dict(line.split("\t", 1)
                   for line in hyps.read_text().splitlines())
    (trace_file,) = out.glob("trace_*.jsonl")
    for record in read_traces(trace_file):
        assert record.hypothesis == offline[record.utt_id]


def test_simulate_refuses_oversized_sweeps(corpus_dir, model_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = run_simulate(corpus_dir, model_path, out,
                      ["--k"] + [str(k) for k in range(8, 8 + 1001)])
    assert rc == 2
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("extra, named", [
    (["--k", "16", "16"], "ulstm-reencode fixed k=16 s=8 N=1"),
    (["--segmentation", "random", "--bounds", "5:10", "5:10"],
     "ulstm-reencode random k=5 s=10 N=1"),
])
def test_simulate_rejects_a_configuration_listed_twice(corpus_dir, model_path, tmp_path,
                                                       capsys, extra, named):
    """Both copies would write the same trace file, so the table could not
    be rebuilt from disk."""
    out = tmp_path / "sweep"
    rc = run_simulate(corpus_dir, model_path, out,
                      ["--strategy", "ulstm-reencode", "--s", "8"] + extra)
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_fewer_than_one_write_token(corpus_dir, model_path, tmp_path,
                                                      capsys):
    """N = 0 would write nothing before the last read, under a label that
    says otherwise."""
    out = tmp_path / "sweep"
    assert run_simulate(corpus_dir, model_path, out, ["--write-tokens", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: write_tokens must be at least 1, got 0"]
    assert not out.exists()


def test_simulate_runs_are_reproducible_across_workers(corpus_dir, model_path,
                                                       tmp_path):
    outs = []
    for name, workers in (("one", "1"), ("two", "1"), ("par", "2")):
        out = tmp_path / name
        rc = run_simulate(corpus_dir, model_path, out,
                          ["--k", "8", "16", "--s", "16", "--seed", "7",
                           "--workers", workers])
        assert rc == 0
        traces = sorted(p.name for p in out.glob("trace_*.jsonl"))
        outs.append((canonical_csv(out / "tradeoff.csv"),
                     [canonical_traces(out / t) for t in traces]))
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_simulate_word_segmentation(corpus_dir, model_path, tmp_path):
    out = tmp_path / "sweep"
    rc = run_simulate(corpus_dir, model_path, out,
                      ["--segmentation", "words", "--k", "0", "16"])
    assert rc == 0
    rows = canonical_csv(out / "tradeoff.csv")
    assert [row[1] for row in rows[1:]] == ["0", "16"]
    assert all(row[4] == "words" for row in rows[1:])


def test_simulate_random_segmentation(corpus_dir, model_path, tmp_path):
    out = tmp_path / "sweep"
    rc = run_simulate(corpus_dir, model_path, out,
                      ["--segmentation", "random", "--bounds", "5:10", "8:24"])
    assert rc == 0
    rows = canonical_csv(out / "tradeoff.csv")
    assert [(row[1], row[2]) for row in rows[1:]] == [("5", "10"), ("8", "24")]


def test_simulate_rejects_malformed_bounds(corpus_dir, model_path, tmp_path, capsys):
    rc = run_simulate(corpus_dir, model_path, tmp_path / "sweep",
                      ["--segmentation", "random", "--bounds", "510"])
    assert rc == 2
    assert "low:high" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_all_strategies(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--frames", "64", "--k", "16", "--s", "8",
                   "--reps", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    for strategy in ("blstm-reencode", "ulstm-reencode", "ulstm-overlap"):
        assert strategy in text
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,frames_processed,mean_wall_per_utt_ns,ratio_vs_blstm"
    table = {row[0]: row for row in (line.split(",") for line in lines[1:])}
    assert int(table["ulstm-reencode"][1]) == 280
    assert int(table["blstm-reencode"][1]) == 560
    assert int(table["ulstm-overlap"][1]) == 92
    assert float(table["blstm-reencode"][3]) == 1.0


# ---------------------------------------------------------------------------
# report


def test_report_builds_tables_difficulty_and_subsets(corpus_dir, model_path,
                                                     tmp_path):
    sweep = tmp_path / "sweep"
    assert run_simulate(corpus_dir, model_path, sweep,
                        ["--k", "8", "16", "--s", "16"]) == 0
    out = tmp_path / "report"
    rc = cli.main(["report", "--sweep", str(sweep), "--data", str(corpus_dir),
                   "--out", str(out), "--subset-size", "3"])
    assert rc == 0
    assert (out / "curves.csv").read_bytes() == (sweep / "tradeoff.csv").read_bytes()
    lines = (out / "per_utterance.jsonl").read_text().splitlines()
    assert len(lines) == 2 * 10
    sample = json.loads(lines[0])
    assert set(sample) == {"config", "utt", "hyp", "al_ms", "frames_processed", "wall_ns",
                           "chunks", "truncated", "suppressed_eos"}
    records = [r for entry in json.loads((sweep / "sweep.json").read_text())["jobs"]
               for r in read_traces(sweep / entry["trace"])]
    per = [json.loads(line) for line in lines]
    assert [(p["utt"], p["chunks"], p["truncated"], p["suppressed_eos"]) for p in per] == \
        [(r.utt_id, r.cost.chunks, r.truncated, r.suppressed_eos) for r in records]
    assert all(p["chunks"] >= 1 for p in per)
    difficulty = (out / "difficulty.csv").read_text().splitlines()
    assert difficulty[0] == "utt_id,difficulty,cutoff"
    assert all(row.split(",")[1] == "1.000000" for row in difficulty[1:])
    for label in ("hardest", "easiest"):
        ids = (out / ("subset_%s.txt" % label)).read_text().split()
        assert len(ids) == 3
        sub_rows = canonical_csv(out / ("curves_%s.csv" % label))
        assert len(sub_rows) == 3


def test_report_difficulty_rows_keep_ids_with_commas_and_quotes(model_path, tmp_path):
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=6)
    ids = ['a,b', 'say "hi"', "plain"]
    corpus = [dataclasses.replace(u, utt_id=i, alignment=dataclasses.replace(u.alignment,
                                                                            utt_id=i))
              for u, i in zip(generate_corpus(spec, 3, 4, 8, seed=1), ids)]
    data = tmp_path / "data"
    save_corpus(data, corpus)
    sweep = tmp_path / "sweep"
    assert run_simulate(data, model_path, sweep, ["--k", "8", "--s", "16"]) == 0
    out = tmp_path / "rep"
    assert cli.main(["report", "--sweep", str(sweep), "--data", str(data),
                     "--out", str(out)]) == 0
    with open(out / "difficulty.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["utt_id", "difficulty", "cutoff"]
    assert [row[0] for row in rows[1:]] == ids
    assert all(len(row) == 3 and float(row[1]) == 1.0 for row in rows[1:])


def test_report_missing_sweep_fails_naming_the_path(corpus_dir, tmp_path, capsys):
    missing = tmp_path / "nothing"
    rc = cli.main(["report", "--sweep", str(missing), "--data", str(corpus_dir),
                   "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_report_rejects_a_trace_file_missing_utterances(corpus_dir, model_path,
                                                       tmp_path, capsys):
    sweep = tmp_path / "sweep"
    assert run_simulate(corpus_dir, model_path, sweep, ["--k", "8", "--s", "16"]) == 0
    (trace,) = sweep.glob("trace_*.jsonl")
    lines = trace.read_text().splitlines(keepends=True)
    summaries = [i for i, line in enumerate(lines) if '"cost"' in line]
    trace.write_text("".join(lines[:summaries[4] + 1]))
    rc = cli.main(["report", "--sweep", str(sweep), "--data", str(corpus_dir),
                   "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "%s holds 5 utterances, sweep.json records 10" % trace in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory, corpus_dir, model_path):
    out = tmp_path_factory.mktemp("small") / "sweep"
    assert run_simulate(corpus_dir, model_path, out, ["--k", "8", "--s", "16"]) == 0
    return out


def copy_corpus(src, dst, drop=0, alignments=True):
    """The corpus at src without its last drop utterances, and without
    alignments.txt unless alignments."""
    dst.mkdir()
    items = read_features(src / "features.simf")
    items = items[:len(items) - drop]
    write_features(dst / "features.simf", items)
    kept = {utt_id for utt_id, _ in items}
    for name in ("source.tsv", "target.tsv", "boundaries.tsv"):
        lines = (src / name).read_text().splitlines(keepends=True)
        (dst / name).write_text("".join(line for line in lines if line.split("\t")[0] in kept))
    if alignments:
        (dst / "alignments.txt").write_bytes((src / "alignments.txt").read_bytes())
    return dst


@pytest.mark.parametrize("drop, alignments, extra, message", [
    (1, False, [], "no reference for utterance"),
    (0, True, ["--subset-size", "50"], "subset of 50 from only 10 scores"),
    (0, True, ["--subset-size", "-2"], "subset size must be positive, got -2"),
    (0, False, ["--subset-size", "3"], "--subset-size needs a corpus with alignments.txt"),
], ids=["utterance-without-reference", "subset-too-large", "negative-subset",
        "subset-without-alignments"])
def test_report_refuses_what_it_cannot_score_and_writes_nothing(
        corpus_dir, small_sweep, tmp_path, capsys, drop, alignments, extra, message):
    data = copy_corpus(corpus_dir, tmp_path / "data", drop, alignments)
    out = tmp_path / "rep"
    rc = cli.main(["report", "--sweep", str(small_sweep), "--data", str(data),
                   "--out", str(out)] + extra)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_draws_subsets_from_the_traced_utterances(corpus_dir, model_path, tmp_path,
                                                         capsys):
    """A sweep over 4 of the corpus's 10 utterances, reported against all 10:
    the subsets hold only traced utterances, and a larger one is refused."""
    data = copy_corpus(corpus_dir, tmp_path / "data", drop=6, alignments=False)
    sweep = tmp_path / "sweep"
    assert run_simulate(data, model_path, sweep, ["--k", "8", "--s", "16"]) == 0
    report = ["report", "--sweep", str(sweep), "--data", str(corpus_dir), "--out"]
    out = tmp_path / "rep"
    assert cli.main(report + [str(out), "--subset-size", "6"]) == 2
    assert "subset of 6 from only 4 scores" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(report + [str(out), "--subset-size", "4"]) == 0
    for label in ("hardest", "easiest"):
        ids = (out / ("subset_%s.txt" % label)).read_text().split()
        assert sorted(ids) == sorted(load_corpus(data).ids)
        assert (out / ("curves_%s.csv" % label)).read_bytes() == \
            (out / "curves.csv").read_bytes()


def test_train_prints_each_epochs_holdout_truncations(corpus_dir, tmp_path, capsys):
    model = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", str(corpus_dir), "--model", str(model)]
                    + TRAIN_ARGS) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("epoch 1 ")]
    cfg, params = load_checkpoint(model)
    _, held = split_holdout(cli._examples_of(load_corpus(corpus_dir)), 0.2)
    capped = sum(offline_trace(u.frames, params, cfg).truncated for u in held)
    assert capped > 0
    assert line.endswith("truncated %d" % capped)


def test_no_command_logs_a_record(corpus_dir, model_path, tmp_path, caplog):
    """Truncation, suppressed end-of-sequence and epoch progress are fields
    of the records that carry them; nothing is logged, at any level."""
    caplog.set_level(logging.DEBUG)
    assert cli.main(["bench", "--frames", "200", "--reps", "1", "--seed", "1"]) == 0
    cfg, params = load_checkpoint(model_path)
    job = {"strategy": "ulstm-reencode", "segmentation": "fixed", "k": 8, "s": 8, "N": 1}
    cli.run_sweep([job], load_corpus(corpus_dir), params, cfg, tmp_path / "sweep")
    training.train(params, cfg, cli._examples_of(load_corpus(corpus_dir)),
                   training.TrainConfig(epochs=1, batch_size=4, holdout_fraction=0.2))
    assert caplog.records == []


@pytest.mark.parametrize("edit, message", [
    ({"jobs": None}, "sweep.json: jobs must be list, got None"),
    ({"k": None}, "sweep.json jobs[0]: k must be int, got None"),
    ({"N": "1"}, "sweep.json jobs[0]: N must be int, got '1'"),
    ({"trace": "../../x.jsonl"}, "sweep.json jobs[0]: trace '../../x.jsonl' is not a file name in"),
    ({"tokenize": 5}, "sweep.json: tokenize must be str, got 5"),
    ({"tokenize": "chars"}, "sweep.json: tokenize must be 'word' or 'char', got 'chars'"),
], ids=["no-jobs-list", "entry-without-k", "entry-with-a-string-N", "trace-outside-the-sweep",
        "tokenize-an-int", "unknown-tokenize"])
def test_report_rejects_a_malformed_sweep_index(corpus_dir, model_path, tmp_path, capsys,
                                                edit, message):
    """A malformed sweep.json is a ConfigError naming it and the entry, not
    a KeyError traceback, and no trace outside the sweep directory is read.
    edit sets keys of the first job, or of the index for "jobs" and
    "tokenize"; None deletes the key."""
    sweep = tmp_path / "sweep"
    assert run_simulate(corpus_dir, model_path, sweep, ["--k", "8", "--s", "16"]) == 0
    index = json.loads((sweep / "sweep.json").read_text())
    target = index if edit.keys() & {"jobs", "tokenize"} else index["jobs"][0]
    for key, value in edit.items():
        if value is None:
            del target[key]
        else:
            target[key] = value
    (sweep / "sweep.json").write_text(json.dumps(index))
    rc = cli.main(["report", "--sweep", str(sweep), "--data", str(corpus_dir),
                   "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_refuses_fewer_than_one_worker(corpus_dir, model_path, tmp_path, capsys,
                                                 workers):
    """No worker count below one quietly runs the sweep inline."""
    out = tmp_path / "sweep"
    assert run_simulate(corpus_dir, model_path, out, ["--workers", workers]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: workers must be at least 1, got %s" % workers]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("strategy", "ulstm"), ("segmentation", "word")])
def test_sweep_rejects_an_unknown_strategy_or_segmentation(corpus_dir, model_path, tmp_path,
                                                           monkeypatch, key, value):
    """A library caller gets no random plan for a misspelt label: the job is
    refused before any simulation runs or any file is written."""
    cfg, params = load_checkpoint(model_path)
    monkeypatch.setattr(cli, "simulate", None)
    out = tmp_path / "sweep"
    job = {"strategy": "ulstm-reencode", "segmentation": "fixed", "k": 8, "s": 8, "N": 1}
    with pytest.raises(ConfigError, match="sweep job 0 .* has unknown %s '%s'" % (key, value)):
        cli.run_sweep([{**job, key: value}], load_corpus(corpus_dir), params, cfg, out)
    assert not out.exists()


@pytest.mark.parametrize("last, error", [
    ({"N": 0}, "write_tokens must be at least 1, got 0"),
    ({"N": -3}, "write_tokens must be at least 1, got -3"),
    ({"s": 7}, "sweep job 1 .*'s': 7.*s must be 0"),
], ids=["N0", "N-3", "words-s7"])
def test_sweep_refuses_a_job_that_misreports_its_configuration(corpus_dir, model_path,
                                                               tmp_path, monkeypatch,
                                                               last, error):
    """N < 1 writes nothing before the last read under a label that says it
    does; word plans read no stride, so s = 7 would run the s = 0 job again
    under another trace name.  Either is refused before any file is
    written."""
    cfg, params = load_checkpoint(model_path)
    monkeypatch.setattr(cli, "simulate", None)
    out = tmp_path / "sweep"
    first = {"strategy": "ulstm-reencode", "segmentation": "words", "k": 0, "s": 0, "N": 1}
    with pytest.raises(ConfigError, match=error):
        cli.run_sweep([first, {**first, **last}], load_corpus(corpus_dir), params, cfg, out)
    assert not out.exists()


def save_with_a_short_utterance(data, index):
    """Save three generated utterances to data, the one at index cut to one
    symbol of 3 frames, too few for an encoder position; returns its id."""
    spec = SyntheticSpec(frames_per_symbol=4, feat_dim=6)
    utts = generate_corpus(spec, 3, 1, 4, seed=2)
    short = utts[index]
    utts[index] = dataclasses.replace(
        short, source=short.source[0], target=short.target[0], frames=short.frames[:3],
        words=[WordSpan(0, 3)],
        alignment=dataclasses.replace(short.alignment, src_len=1, tgt_len=1,
                                      pairs=frozenset({(1, 1)})))
    save_corpus(data, utts)
    assert len(load_corpus(data).features[short.utt_id]) == 3
    return short.utt_id


def test_sweep_that_cannot_simulate_an_utterance_writes_nothing(model_path, tmp_path):
    """An utterance too short for one encoder position fails its simulation;
    the sweep raises before it makes its output directory."""
    cfg, params = load_checkpoint(model_path)
    short = save_with_a_short_utterance(tmp_path / "data", -1)
    out = tmp_path / "sweep"
    job = {"strategy": "ulstm-reencode", "segmentation": "fixed", "k": 4, "s": 4, "N": 1}
    with pytest.raises(InsufficientFramesError, match=short):
        cli.run_sweep([job], load_corpus(tmp_path / "data"), params, cfg, out)
    assert not out.exists()


def test_translate_names_an_utterance_too_short_to_encode(model_path, tmp_path, capsys):
    short = save_with_a_short_utterance(tmp_path / "data", 1)
    out = tmp_path / "hyps.tsv"
    assert cli.main(["translate", "--data", str(tmp_path / "data"), "--model", str(model_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: utterance %r yields no encoder positions" % short]
    assert not out.exists()


@pytest.mark.parametrize("index", [0, -1], ids=["training", "held-out"])
def test_train_refuses_an_utterance_too_short_to_encode_before_any_update(
        tmp_path, capsys, monkeypatch, index):
    """The id-sorted corpus holds out its last utterance; a short one is
    refused on either side of the split before any loss is computed."""
    short = save_with_a_short_utterance(tmp_path / "data", index)
    losses = []
    monkeypatch.setattr(training, "utterance_loss", lambda *a, **k: losses.append(a))
    path = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", str(tmp_path / "data"), "--model", str(path)]
                    + TRAIN_ARGS) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: utterance %r has 3 frames, too few for one encoder position "
        "(need at least 4)" % short]
    assert losses == [] and not path.exists()


def test_train_on_an_empty_corpus_names_it_and_writes_no_model(tmp_path, capsys):
    data, path = tmp_path / "data", tmp_path / "m.ckpt"
    save_corpus(data, [])
    assert cli.main(["train", "--data", str(data), "--model", str(path)] + TRAIN_ARGS) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: corpus %s holds no utterances to train on" % data]
    assert not path.exists()


MISSING = object()
ANY_VALUE = st.one_of(st.integers(), st.booleans(), st.floats(), st.text(max_size=4),
                      st.none(), st.just(MISSING))


@st.composite
def sweep_jobs(draw):
    """One or two jobs, each a runnable configuration with any of its five
    fields replaced by an int, bool, float, string or None, or left out."""
    jobs = []
    for _ in range(draw(st.integers(1, 2))):
        segmentation = draw(st.sampled_from(cli.SEGMENTATIONS))
        job = {"strategy": draw(st.sampled_from(STRATEGIES)), "segmentation": segmentation,
               "k": draw(st.integers(0, 40)),
               "s": 0 if segmentation == "words" else draw(st.integers(1, 40)),
               "N": draw(st.integers(1, 3))}
        for key in draw(st.lists(st.sampled_from([key for key, _ in CONFIG_FIELDS]), max_size=2)):
            job[key] = draw(ANY_VALUE)
        jobs.append({key: value for key, value in job.items() if value is not MISSING})
    return jobs


@settings(max_examples=100, deadline=None)
@given(jobs=sweep_jobs())
@example(jobs=[{"strategy": "ulstm-overlap", "segmentation": "random", "k": 1, "s": 4, "N": 1}])
def test_sweep_jobs_are_refused_or_read_back_as_written(corpus_dir, model_path, jobs):
    """run_sweep either refuses the jobs with a ConfigError before it makes
    the output directory, or writes a sweep whose index reads back with each
    job's five fields, of the same types."""
    cfg, params = load_checkpoint(model_path)
    corpus = load_corpus(corpus_dir)
    corpus.ids = corpus.ids[:2]
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "sweep"
        try:
            rows = cli.run_sweep(jobs, corpus, params, cfg, out)
        except ConfigError:
            assert not out.exists()
            return
        _, results = cli._read_sweep(out)
    typed = lambda config: [(key, type(config[key]), config[key])  # noqa: E731
                            for key, _ in CONFIG_FIELDS]
    assert [typed(config) for config, _ in results] == [typed(job) for job in jobs]
    assert [row.truncated for row in rows] == [sum(tr.truncated for tr in traces)
                                               for _, traces in results]


def test_sweep_of_an_empty_corpus_writes_nothing(corpus_dir, model_path, tmp_path):
    cfg, params = load_checkpoint(model_path)
    corpus = load_corpus(corpus_dir)
    corpus.ids = []
    job = {"strategy": "ulstm-reencode", "segmentation": "fixed", "k": 8, "s": 8, "N": 1}
    with pytest.raises(ConfigError, match="at least one utterance"):
        cli.run_sweep([job], corpus, params, cfg, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def test_report_lags_agree_with_the_table_on_an_empty_reference(corpus_dir, model_path,
                                                                tmp_path):
    """Per-utterance AL is the table's: an empty reference counts as one
    token, so the table's AL is the mean of the per-utterance lags."""
    sweep = tmp_path / "sweep"
    assert run_simulate(corpus_dir, model_path, sweep, ["--k", "8", "--s", "16"]) == 0
    data = tmp_path / "data"
    data.mkdir()
    for name in ("features.simf", "source.tsv", "boundaries.tsv"):
        (data / name).write_bytes((corpus_dir / name).read_bytes())
    lines = (corpus_dir / "target.tsv").read_text().splitlines()
    lines[0] = lines[0].split("\t")[0] + "\t"
    (data / "target.tsv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "rep"
    assert cli.main(["report", "--sweep", str(sweep), "--data", str(data),
                     "--out", str(out)]) == 0
    lags = [json.loads(line)["al_ms"]
            for line in (out / "per_utterance.jsonl").read_text().splitlines()]
    assert lags[0] is not None
    lags = [lag for lag in lags if lag is not None]
    table_al = float(canonical_csv(out / "curves.csv")[1][6])
    assert table_al == pytest.approx(sum(lags) / len(lags), abs=1e-3)


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"utterances": 5, "min_len": 3, "max_len": 6,
                               "frames_per_symbol": 4, "feat_dim": 6}))
    a = tmp_path / "a"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert len((a / "source.tsv").read_text().splitlines()) == 5
    b = tmp_path / "b"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(b),
                     "--utterances", "4"]) == 0
    assert len((b / "source.tsv").read_text().splitlines()) == 4


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"utterances": 5, "no_such_flag": 1}))
    rc = cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "no_such_flag" in capsys.readouterr().err


def test_config_file_must_exist(tmp_path, capsys):
    rc = cli.main(["generate", "--config", str(tmp_path / "gone.json"),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "gone.json" in capsys.readouterr().err


def test_config_values_go_through_the_flag_parser(corpus_dir, model_path, tmp_path):
    """A config value is converted as the same flag on the command line is:
    a bare number serves a list flag, and a required flag may come from the
    file."""
    cfg = tmp_path / "sim.json"
    out = tmp_path / "sweep"
    cfg.write_text(json.dumps({"data": str(corpus_dir), "model": str(model_path),
                               "out": str(out), "k": 8, "s": [16]}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    rows = canonical_csv(out / "tradeoff.csv")
    assert [dict(zip(TRADEOFF_COLUMNS, row))["k"] for row in rows[1:]] == ["8"]


@pytest.mark.parametrize("command, key, value, says", [
    ("generate", "utterances", 2.5, "invalid int value: '2.5'"),
    ("generate", "feature_scale", True, "must be a string or a number"),
    ("generate", "seed", None, "must be a string or a number"),
    ("train", "bidirectional", "yes", "must be true or false, got 'yes'"),
    ("train", "vgg_channels", [4, 8, 16], "unexpected values 16"),
    ("translate", "tokenize", "bytes", "invalid choice: 'bytes'"),
    ("simulate", "k", ["eight"], "invalid int value: 'eight'"),
])
def test_config_file_refuses_a_value_its_flag_refuses(tmp_path, capsys, command, key, value,
                                                      says):
    """The refusal exits 2 with one line naming the file and the key, before
    the command's own flags are parsed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config %s: %s: " % (cfg, key))
    assert says in err[0]


# ---------------------------------------------------------------------------
# README


def walkthrough_commands(readme: str) -> list:
    """The arguments of each streamst command in README's walkthrough block,
    with continuation lines joined and a leading VAR=value dropped."""
    section = readme.split("## Command-line walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        while argv and "=" in argv[0] and argv[0].split("=", 1)[0].isidentifier():
            argv = argv[1:]
        if argv and argv[0] == "streamst":
            commands.append(argv[1:])
    return commands


def test_readme_walkthrough_parses():
    """Every command the walkthrough shows is one the parser accepts, and
    it shows every subcommand."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    commands = walkthrough_commands(readme)
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README runs streamst %s, which the parser refuses" % " ".join(argv))
    assert {argv[0] for argv in commands} == set(parser.sub_commands)
