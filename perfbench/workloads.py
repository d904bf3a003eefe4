"""The benchmark's three workloads: their inputs, their timed rounds and the
checks on their outputs.

Each workload is a closed loop in one process: the next operation starts
when the previous one has returned.  A round is a fixed list of operations;
``round()`` times them and gathers what the checks need, and ``check()``
raises CheckFailed on the first output that is wrong.  The checks compare
against computations made apart from the path under test, or against
properties the method must have, never against stored output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import streamst.autodiff as ad
import streamst.cli as cli
import streamst.decoder as decoder
import streamst.segmentation as segmentation
import streamst.synthetic as synthetic
import streamst.training as training
from streamst.decoder import DecodePolicy, offline_translate, read_traces
from streamst.encoding import MIN_CHUNK_FRAMES, STRATEGIES, EncoderStream
from streamst.metrics import bleu
from streamst.model import (ModelConfig, Parameters, create_parameters,
                            encode_utterance, load_checkpoint)
from streamst.synthetic import SyntheticSpec, generate_corpus
from streamst.training import TrainConfig

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "toy.ckpt"

# the synthetic task and the recipe of the test suite's session model
TASK = SyntheticSpec(seed=77)
CHECKPOINT_CORPUS_SEED = 101
CHECKPOINT_INIT_SEED = 7
WARM_RECIPE = TrainConfig(epochs=24, lr=0.01, batch_size=4, optimizer="adam",
                          guide_epochs=3, guide_weight=0.5, seed=7)
FINE_RECIPE = TrainConfig(epochs=8, lr=0.002, batch_size=4, optimizer="adam",
                          seed=8)

# one short and one long utterance per symbol count: 40 to 128 frames, the
# same lengths for every seed so that the work per round does not depend on it
CORPUS_SYMBOLS = tuple(range(5, 17))
CORPUS_PER_LENGTH = 2
SWEEP_STREAM, TRAIN_STREAM = 1, 2  # keep the sweep and train corpora apart


class CheckFailed(Exception):
    """An output of the program is wrong."""


def toy_config() -> ModelConfig:
    return ModelConfig(vocab=TASK.target_vocab, vgg_channels=(4, 8), enc_layers=1)


def checkpoint_corpus() -> list:
    return generate_corpus(TASK, 240, 5, 16, seed=CHECKPOINT_CORPUS_SEED)


def seeded_corpus(stream: int, seed: int) -> list:
    """Utterances of every length in CORPUS_SYMBOLS, drawn from the seed."""
    utts = []
    for n in CORPUS_SYMBOLS:
        draw = np.random.SeedSequence([stream, seed % 2 ** 63, n]).generate_state(1)[0]
        for i, utt in enumerate(synthetic.generate_corpus(
                TASK, CORPUS_PER_LENGTH, n, n, seed=int(draw))):
            utt.utt_id = "len%02d_%d" % (n, i)
            utts.append(utt)
    return utts


def _median_ms(samples_ns: list, per: int = 1) -> float:
    return statistics.median(samples_ns) / per / 1e6


# ---------------------------------------------------------------------------
# checks shared by the workloads and by selftest.py


def check_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed("%s: got %r, expected %r" % (what, got, want))


def check_bit_identical(what: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or got.dtype != want.dtype or \
            got.tobytes() != want.tobytes():
        raise CheckFailed("%s: streaming outputs differ from offline encoding" % what)


def expected_frames(boundaries: tuple, strategy: str) -> int:
    """Frames a strategy pushes through the front end for a read plan.

    Re-encoding reads the whole prefix after every read, twice when the
    encoder is bidirectional.  Overlap encoding reads each chunk's new
    frames plus half (rounded up) of the previous chunk's new frames.  Holds
    for plans whose every read has at least MIN_CHUNK_FRAMES frames.
    """
    sizes = np.diff((0,) + tuple(boundaries))
    if sizes.min() < MIN_CHUNK_FRAMES:
        raise ValueError("plan has reads shorter than %d frames" % MIN_CHUNK_FRAMES)
    if strategy != "ulstm-overlap":
        return sum(boundaries) * (2 if strategy == "blstm-reencode" else 1)
    carry = 0
    total = 0
    for new in sizes.tolist():
        total += new + carry
        carry = (new + 1) // 2
    return total


def expected_overlap_positions(boundaries: tuple) -> int:
    """Positions an overlap stream keeps: each chunk of L frames yields
    floor(floor(L/2)/2) positions, less a quarter (rounded half up) of its
    overlap, which is half its new frames; the final chunk keeps all."""
    sizes = np.diff((0,) + tuple(boundaries)).tolist()
    carry = 0
    kept = 0
    for i, new in enumerate(sizes):
        positions = ((new + carry) // 2) // 2
        overlap = (new + 1) // 2
        discard = 0 if i == len(sizes) - 1 else (overlap + 2) // 4
        kept += max(0, positions - discard)
        carry = overlap
    return kept


def check_overlap_positions(stream, boundaries: tuple) -> None:
    want = expected_overlap_positions(boundaries)
    check_equal("overlap positions", stream.positions, want)
    check_equal("overlap output rows", stream.outputs.shape[0], want)
    check_equal("overlap kept chunk positions",
                sum(c.kept for c in stream.chunk_log), want)


def check_delays(records: list) -> None:
    for r in records:
        d = r.delays_ms
        if any(b < a for a, b in zip(d, d[1:])):
            raise CheckFailed("%s: write delays decrease" % r.utt_id)
        if d and d[-1] > r.duration_ms:
            raise CheckFailed("%s: a write at %.1f ms after the input ended at %.1f ms"
                              % (r.utt_id, d[-1], r.duration_ms))


def check_tradeoff_rows(rows: list, n_configs: int) -> None:
    check_equal("tradeoff.csv rows", len(rows), n_configs)
    keys = {(r["strategy"], r["segmentation"], r["k"], r["s"], r["N"]) for r in rows}
    check_equal("distinct tradeoff.csv configurations", len(keys), n_configs)
    for r in rows:
        score, lag = float(r["BLEU"]), float(r["AL_ms"])
        if not 0.0 <= score <= 1.0:
            raise CheckFailed("BLEU %r outside [0, 1]" % r["BLEU"])
        if not math.isfinite(lag):
            raise CheckFailed("AL %r is not finite" % r["AL_ms"])


def check_at_least(what: str, value: float, floor: float) -> None:
    if not value >= floor:
        raise CheckFailed("%s %.4f is below the floor %.4f" % (what, value, floor))


def check_disjoint(sweep_sources: list, train_sources: list) -> None:
    shared = set(sweep_sources) & set(train_sources)
    if shared:
        raise CheckFailed("sweep corpus shares %d sources with the checkpoint's "
                          "training corpus" % len(shared))


def check_loss_falls(reports: list) -> None:
    first, last = reports[0].mean_loss, reports[-1].mean_loss
    if not last < first:
        raise CheckFailed("loss per token went from %.4f to %.4f" % (first, last))


# central differences in float32, at the fixed initial parameters.  There the
# loss is smooth at this step and the gap is float32 rounding: over 30 corpus
# seeds no sampled entry came within 0.4 of the tolerance below.  At trained
# parameters max-pool switches and saturated units move central differences
# by several percent (7% on one first-layer kernel entry), so the check
# does not run there.
FD_STEP = 3e-3
FD_RTOL = 0.05
FD_ATOL = 2e-3


def check_gradients(analytic: dict, numeric: dict) -> None:
    for key, a in analytic.items():
        n = numeric[key]
        if abs(a - n) > FD_RTOL * max(abs(a), abs(n)) + FD_ATOL:
            raise CheckFailed("gradient of %s[%s]: tape %.6g, finite differences %.6g"
                              % (key[0], key[1], a, n))


# ---------------------------------------------------------------------------
# stream-long: the `streamst bench` setting


class StreamLong:
    """One 2000-frame utterance, read 100 frames then 10 at a time, through
    each strategy on a tiny freshly seeded model.  The encoder re-runs over
    a growing prefix 191 times; writes are capped at 40 tokens, so the
    decoder is nearly idle.

    The model is the one `streamst bench` builds by default (seed 0) and only
    the frames follow the workload seed.  The model seed alone decides
    whether the untrained decoder proposes end-of-sequence at every read:
    with seed 0 it does, so every read costs one discarded decode step and
    nothing is written; with seeds 1 and 2 it writes 40 tokens and stops.
    A seeded model would make the decoder's work depend on the seed.

    A round gives each strategy about ten seconds of measurement, spread
    over the whole round: one blstm-reencode utterance takes about ten
    seconds, one ulstm-overlap utterance a fiftieth of that.  The machine's
    speed drifts by a tenth over a few seconds, so samples of one strategy
    taken back to back would all share one stretch of it.
    """

    name = "stream-long"
    T_FRAMES, K, S = 2000, 100, 10
    DIMS = dict(feat_dim=8, vgg_channels=(2, 2), enc_layers=1, hidden=8,
                attn_dim=8, embed_dim=8, vocab="AB")
    POLICY = DecodePolicy(write_tokens=1, max_target_factor=0.0, max_target_slack=40)
    MODEL_SEED = 0
    _OVERLAP10 = ("ulstm-overlap",) * 10
    SCHEDULE = (_OVERLAP10 + ("ulstm-reencode",) + _OVERLAP10 + ("blstm-reencode",)
                + _OVERLAP10 + ("ulstm-reencode",) + _OVERLAP10)
    ops_per_round = len(SCHEDULE)

    def __init__(self, seed: int, out_dir: Path):
        self.frames = np.random.default_rng(seed % 2 ** 63).standard_normal(
            (self.T_FRAMES, self.DIMS["feat_dim"])).astype(np.float32)
        self.models = {}
        for strategy in STRATEGIES:
            cfg = ModelConfig(bidirectional=strategy.startswith("blstm"), **self.DIMS)
            self.models[strategy] = (cfg, create_parameters(cfg, seed=self.MODEL_SEED))
        self._offline: dict = {}
        self.samples_ns: dict = {s: [] for s in STRATEGIES}

    def warm(self) -> None:
        for strategy in STRATEGIES:
            cfg, params = self.models[strategy]
            plan = segmentation.fixed_plan(200, self.K, self.S, "warm")
            decoder.simulate(self.frames[:200], plan, self.POLICY, params, cfg, strategy)

    def round(self) -> list:
        streams: list = []

        class Captured(EncoderStream):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        out = []
        decoder.EncoderStream = Captured
        try:
            for strategy in self.SCHEDULE:
                cfg, params = self.models[strategy]
                plan = segmentation.fixed_plan(self.T_FRAMES, self.K, self.S, "bench")
                begin = time.perf_counter_ns()
                trace = decoder.simulate(self.frames, plan, self.POLICY, params, cfg,
                                         strategy)
                self.samples_ns[strategy].append(time.perf_counter_ns() - begin)
                out.append((strategy, plan.boundaries, trace.cost.frames_processed,
                            streams[-1]))
        finally:
            decoder.EncoderStream = EncoderStream
        return out

    def offline(self, strategy: str) -> np.ndarray:
        if strategy not in self._offline:
            cfg, params = self.models[strategy]
            self._offline[strategy] = encode_utterance(self.frames, params, cfg).data
        return self._offline[strategy]

    def check(self, outputs: list) -> None:
        for strategy, boundaries, frames_processed, stream in outputs:
            check_equal("%s frames_processed" % strategy, frames_processed,
                        expected_frames(boundaries, strategy))
            if strategy == "ulstm-overlap":
                check_overlap_positions(stream, boundaries)
            else:
                check_bit_identical(strategy, stream.outputs.data, self.offline(strategy))

    def utt_ms(self) -> float:
        """Geometric mean over the strategies of the median ms per utterance."""
        medians = [_median_ms(self.samples_ns[s]) for s in STRATEGIES]
        return math.exp(sum(math.log(m) for m in medians) / len(medians))

    def summary(self) -> dict:
        """Median ms per utterance of each strategy, and each relative to
        blstm-reencode as `streamst bench` prints it."""
        ms = {s: _median_ms(self.samples_ns[s]) for s in STRATEGIES}
        return {"utt_ms": ms,
                "ratio": {s: ms[s] / ms["blstm-reencode"] for s in STRATEGIES}}


# ---------------------------------------------------------------------------
# sweep: run_sweep over a held-out corpus with the trained checkpoint


def _sweep_jobs() -> list:
    jobs = []
    for strategy in ("ulstm-reencode", "ulstm-overlap"):
        grid = ([("fixed", k, s) for k, s in ((16, 8), (32, 16), (64, 32))]
                + [("words", k, 0) for k in (0, 16)]
                + [("random", lo, hi) for lo, hi in ((5, 10), (10, 40))]
                + [("fixed", READ_ALL, 1)])
        jobs.extend({"strategy": strategy, "segmentation": seg, "k": k, "s": s, "N": 1}
                    for seg, k, s in grid)
    return jobs


READ_ALL = 1_000_000  # a fixed plan whose first read takes the whole utterance
SWEEP_JOBS = _sweep_jobs()
# offline character BLEU of the checkpoint on the sweep corpus: 0.94 median,
# 0.87 lowest over 60 seeds; the checkpoint after its warm phase alone holds
# out at 0.65 and an untrained one at 0
BLEU_FLOOR = 0.75


class Sweep:
    """Both unidirectional strategies under fixed, oracle-word and random
    segmentation, plus a read-everything plan each, over 24 utterances."""

    name = "sweep"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir / "sweep"
        corpus_dir = out_dir / "sweep-corpus"
        shutil.rmtree(corpus_dir, ignore_errors=True)
        synthetic.save_corpus(corpus_dir, seeded_corpus(SWEEP_STREAM, seed))
        self.corpus = synthetic.load_corpus(corpus_dir)
        self.cfg, self.params = load_checkpoint(CHECKPOINT)
        self.ops_per_round = len(SWEEP_JOBS) * len(self.corpus.ids)
        self.samples_ns: list = []
        self._offline: dict | None = None

    def warm(self) -> None:
        utt = self.corpus.ids[0]
        offline_translate(self.corpus.features[utt], self.params, self.cfg)

    def round(self) -> dict:
        begin = time.perf_counter_ns()
        cli.run_sweep(SWEEP_JOBS, self.corpus, self.params, self.cfg, self.out,
                      seed=self.seed, tokenize="char")
        self.samples_ns.append(time.perf_counter_ns() - begin)
        index = json.loads((self.out / "sweep.json").read_text(encoding="utf-8"))
        traces = [(job, read_traces(self.out / job["trace"])) for job in index["jobs"]]
        with open(self.out / "tradeoff.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        return {"traces": traces, "rows": rows}

    def offline(self) -> dict:
        if self._offline is None:
            self._offline = {u: offline_translate(self.corpus.features[u], self.params,
                                                  self.cfg) for u in self.corpus.ids}
            hyps = [self._offline[u] for u in self.corpus.ids]
            refs = [self.corpus.targets[u] for u in self.corpus.ids]
            self.offline_bleu = bleu(hyps, refs, tokenize="char")
            check_at_least("offline character BLEU of the checkpoint",
                           self.offline_bleu, BLEU_FLOOR)
            check_disjoint(list(self.corpus.sources.values()),
                           [u.source for u in checkpoint_corpus()])
        return self._offline

    def check(self, outputs: dict) -> None:
        offline = self.offline()
        check_equal("sweep configurations", len(outputs["traces"]), len(SWEEP_JOBS))
        for job, records in outputs["traces"]:
            check_equal("traces of %s" % job["trace"], len(records), len(self.corpus.ids))
            check_delays(records)
            if job["k"] == READ_ALL:
                for r in records:
                    check_equal("%s %s read-all hypothesis" % (job["strategy"], r.utt_id),
                                r.hypothesis, offline[r.utt_id])
        check_tradeoff_rows(outputs["rows"], len(SWEEP_JOBS))

    def utt_ms(self) -> float:
        return _median_ms(self.samples_ns, self.ops_per_round)

    def summary(self) -> dict:
        return {"sims_per_s": 1e3 / self.utt_ms(),
                "offline_char_bleu": self.offline_bleu}


# ---------------------------------------------------------------------------
# train: Adam from a fixed initialisation on a fixed corpus


TRAIN_RECIPE = TrainConfig(epochs=4, lr=0.01, batch_size=4, optimizer="adam",
                           guide_epochs=4, guide_weight=0.5, seed=7,
                           holdout_fraction=0.0)


def params_digest(params: Parameters) -> str:
    h = hashlib.sha256()
    for name, t in params:
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def fd_gradients(params: Parameters, cfg: ModelConfig, utt) -> tuple:
    """Tape gradient of utterance_loss and its central difference at the
    largest-gradient entry of every parameter tensor."""
    weight = TRAIN_RECIPE.guide_weight
    params.zero_grads()
    with ad.Tape() as tape:
        loss, _ = training.utterance_loss(utt.frames, utt.target, params, cfg, weight)
    ad.backward(tape, loss)
    analytic, numeric = {}, {}
    for name, t in params:
        idx = np.unravel_index(int(np.argmax(np.abs(t.grad))), t.shape)
        keep = t.data[idx]
        values = []
        for step in (FD_STEP, -FD_STEP):
            t.data[idx] = keep + np.float32(step)
            values.append((float(t.data[idx]),
                           float(training.utterance_loss(utt.frames, utt.target,
                                                         params, cfg, weight)[0].data)))
        t.data[idx] = keep
        (x_up, up), (x_down, down) = values
        key = (name, ",".join(str(int(i)) for i in idx))
        analytic[key] = float(t.grad[idx])
        numeric[key] = (up - down) / (x_up - x_down)
    params.zero_grads()
    return analytic, numeric


class Train:
    """Four epochs of Adam with the attention guide over 24 utterances,
    starting every round from the same initial parameters."""

    name = "train"

    def __init__(self, seed: int, out_dir: Path):
        self.corpus = seeded_corpus(TRAIN_STREAM, seed)
        self.cfg = toy_config()
        self.init = [(n, t.data.copy()) for n, t in
                     create_parameters(self.cfg, seed=CHECKPOINT_INIT_SEED)]
        self.ops_per_round = TRAIN_RECIPE.epochs * len(self.corpus)
        self.samples_ns: list = []
        self.digest: str | None = None
        self.losses: list = []

    def fresh_parameters(self) -> Parameters:
        return Parameters([(n, ad.Tensor(a.copy(), requires_grad=True))
                           for n, a in self.init])

    def warm(self) -> None:
        with ad.Tape() as tape:
            utt = self.corpus[0]
            loss, _ = training.utterance_loss(utt.frames, utt.target,
                                              self.fresh_parameters(), self.cfg)
        ad.backward(tape, loss)

    def round(self) -> dict:
        params = self.fresh_parameters()
        begin = time.perf_counter_ns()
        reports = training.train(params, self.cfg, self.corpus, TRAIN_RECIPE)
        self.samples_ns.append(time.perf_counter_ns() - begin)
        return {"reports": reports, "digest": params_digest(params)}

    def check(self, outputs: dict) -> None:
        check_loss_falls(outputs["reports"])
        if self.digest is None:
            self.digest = outputs["digest"]
            self.losses = [r.mean_loss for r in outputs["reports"]]
            shortest = min(self.corpus, key=lambda u: u.n_frames)
            check_gradients(*fd_gradients(self.fresh_parameters(), self.cfg, shortest))
        check_equal("final parameter digest", outputs["digest"], self.digest)

    def utt_ms(self) -> float:
        return _median_ms(self.samples_ns, self.ops_per_round)

    def summary(self) -> dict:
        return {"digest": self.digest, "epoch_loss_per_token": self.losses}


def conv2d_backward_ms(repeats: int = 5) -> float:
    """Backward of the toy model's four convolutions on a 128-frame input,
    each on a tape holding that one conv2d; the sum of per-shape medians."""
    rng = np.random.default_rng(0)
    shapes = (((1, 128, 16), (4, 1, 3, 3)), ((4, 128, 16), (4, 4, 3, 3)),
              ((4, 64, 8), (8, 4, 3, 3)), ((8, 64, 8), (8, 8, 3, 3)))
    total = 0.0
    for x_shape, k_shape in shapes:
        x, k, b = (ad.Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in (x_shape, k_shape, k_shape[:1]))
        samples = []
        for _ in range(repeats):
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.conv2d(x, k, b))
            begin = time.perf_counter_ns()
            ad.backward(tape, loss)
            samples.append(time.perf_counter_ns() - begin)
        total += _median_ms(samples)
    return total


WORKLOADS = {w.name: w for w in (StreamLong, Sweep, Train)}
