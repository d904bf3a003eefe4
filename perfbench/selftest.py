"""Show that every output check of the benchmark passes on the program's real
outputs and fails when it is given a deliberately wrong one.

Run from the root of the checkout; it takes well under a minute:

    python3 perfbench/selftest.py

The workloads are shrunk (a 300-frame utterance, four utterances, two
sweep configurations, two epochs) so that each real output is cheap to
make.  Exits non-zero if a check rejects a real output or accepts a wrong
one.
"""

import copy
import dataclasses
import sys
from types import SimpleNamespace

import pin

pin.pin_threads_and_path()

import numpy as np  # noqa: E402

from streamst.model import create_parameters  # noqa: E402

import workloads as w  # noqa: E402

SEED = 3
FAILURES = []


def expect_pass(what, fn, *args):
    try:
        fn(*args)
    except w.CheckFailed as e:
        FAILURES.append("%s: rejected a real output: %s" % (what, e))
        print("FAIL  %s rejected a real output: %s" % (what, e))
    else:
        print("ok    %s accepts the real output" % what)


def expect_fail(what, fn, *args):
    try:
        fn(*args)
    except w.CheckFailed as e:
        print("ok    %s rejects it: %s" % (what, e))
    else:
        FAILURES.append("%s: accepted a wrong output" % what)
        print("FAIL  %s accepted a wrong output" % what)


def flipped(data: np.ndarray) -> SimpleNamespace:
    """A stand-in stream whose outputs differ from data in one low bit."""
    wrong = data.copy()
    wrong.view(np.uint32).flat[0] ^= 1
    return SimpleNamespace(outputs=SimpleNamespace(data=wrong))


def stream_long():
    class Short(w.StreamLong):
        T_FRAMES = 300
        SCHEDULE = w.STRATEGIES
        ops_per_round = len(w.STRATEGIES)

    wl = Short(SEED, w.HERE / "out")
    out = wl.round()
    expect_pass("stream-long", wl.check, out)
    by = {entry[0]: i for i, entry in enumerate(out)}
    for strategy in w.STRATEGIES:
        wrong = list(out)
        s, bounds, frames, stream = wrong[by[strategy]]
        wrong[by[strategy]] = (s, bounds, frames + 1, stream)
        expect_fail("stream-long frames_processed of %s off by one" % strategy,
                    wl.check, wrong)
    for strategy in ("blstm-reencode", "ulstm-reencode"):
        wrong = list(out)
        s, bounds, frames, stream = wrong[by[strategy]]
        wrong[by[strategy]] = (s, bounds, frames, flipped(stream.outputs.data))
        expect_fail("stream-long %s outputs with one bit flipped" % strategy,
                    wl.check, wrong)
    s, bounds, frames, stream = out[by["ulstm-overlap"]]
    for label, fake in (
            ("a position short", SimpleNamespace(positions=stream.positions - 1,
                                                 outputs=stream.outputs,
                                                 chunk_log=stream.chunk_log)),
            ("its last chunk unlogged", SimpleNamespace(positions=stream.positions,
                                                        outputs=stream.outputs,
                                                        chunk_log=stream.chunk_log[:-1]))):
        wrong = list(out)
        wrong[by["ulstm-overlap"]] = (s, bounds, frames, fake)
        expect_fail("stream-long overlap stream with %s" % label, wl.check, wrong)


def sweep():
    w.SWEEP_JOBS = [job for job in w.SWEEP_JOBS if job["strategy"] == "ulstm-overlap"
                    and job["segmentation"] == "fixed" and job["k"] in (16, w.READ_ALL)]
    wl = w.Sweep(SEED, w.HERE / "out" / "selftest")
    out = wl.round()
    expect_pass("sweep", wl.check, out)
    read_all = next(i for i, (job, _) in enumerate(out["traces"]) if job["k"] == w.READ_ALL)
    streamed = 1 - read_all

    def with_record(i, change):
        wrong = copy.deepcopy(out)
        job, records = wrong["traces"][i]
        records[0] = dataclasses.replace(records[0], **change(records[0]))
        return wrong

    expect_fail("sweep read-all hypothesis with a character dropped", wl.check,
                with_record(read_all, lambda r: {"hypothesis": r.hypothesis[:-1]}))
    expect_fail("sweep trace whose last write comes before the one ahead of it",
                wl.check, with_record(streamed, lambda r: {
                    "delays_ms": r.delays_ms + [r.delays_ms[-1] - 10.0]}))
    expect_fail("sweep trace with a write after the input ended", wl.check,
                with_record(streamed, lambda r: {
                    "delays_ms": r.delays_ms + [r.duration_ms + 10.0]}))
    for label, change in (("a row missing", lambda rows: rows[:-1]),
                          ("BLEU 1.5", lambda rows: [dict(rows[0], BLEU="1.5")] + rows[1:]),
                          ("AL nan", lambda rows: [dict(rows[0], AL_ms="nan")] + rows[1:])):
        wrong = dict(out, rows=change(out["rows"]))
        expect_fail("sweep tradeoff.csv with %s" % label, wl.check, wrong)
    untrained = copy.copy(wl)
    untrained._offline = None
    untrained.params = create_parameters(wl.cfg, seed=w.CHECKPOINT_INIT_SEED)
    expect_fail("sweep with an untrained checkpoint", untrained.offline)
    sources = list(wl.corpus.sources.values())
    training_sources = [u.source for u in w.checkpoint_corpus()]
    expect_pass("sweep corpus disjoint from the training corpus", w.check_disjoint,
                sources, training_sources)
    expect_fail("sweep corpus sharing one training sentence", w.check_disjoint,
                sources + training_sources[:1], training_sources)


def train():
    w.TRAIN_RECIPE = dataclasses.replace(w.TRAIN_RECIPE, epochs=2, guide_epochs=2)
    wl = w.Train(SEED, w.HERE / "out")
    out = wl.round()
    expect_pass("train", wl.check, out)
    expect_fail("train with the epoch losses in reverse order", wl.check,
                dict(out, reports=out["reports"][::-1]))
    expect_fail("train with another final parameter digest", wl.check,
                dict(out, digest=out["digest"][::-1]))
    shortest = min(wl.corpus, key=lambda u: u.n_frames)
    analytic, numeric = w.fd_gradients(wl.fresh_parameters(), wl.cfg, shortest)
    expect_pass("train finite differences", w.check_gradients, analytic, numeric)
    for label, factor in (("scaled by 1.2", 1.2), ("with its sign flipped", -1.0)):
        wrong = dict(analytic)
        key = max(wrong, key=lambda k: abs(wrong[k]))
        wrong[key] *= factor
        expect_fail("train gradient %s" % label, w.check_gradients, wrong, numeric)


def main() -> int:
    w.CORPUS_SYMBOLS = (5, 6)
    for part in (stream_long, sweep, train):
        part()
    if FAILURES:
        print("%d check(s) misbehaved" % len(FAILURES))
        return 1
    print("every check accepts real outputs and rejects wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
