"""Acceptance suite: one numbered criterion per release-checklist line.

Each test name carries its criterion number; the terminal summary hook in
conftest turns them into a PASS/FAIL checklist.  Quantities that are exact
(frame counts, metric closed forms) are pinned to tight tolerances; shapes
that depend on hardware or training (wall-clock ratios, BLEU/lag curves) are
asserted as properties, not values.
"""

import csv
import math
import random
import zlib

import numpy as np
import pytest
from scipy import stats

import helpers
from test_autodiff import OP_CASES
from test_metrics import difficulty_reference

from streamst import model as md
from streamst.cli import benchmark_decoding, run_sweep
from streamst.decoder import DecodePolicy, simulate
from streamst.encoding import EncoderStream
from streamst.metrics import (TRADEOFF_COLUMNS, AlignmentSet, average_lagging,
                              bleu, extract_subsets, lagging_difficulty)
from streamst.segmentation import fixed_plan

SWEEP_KS = (8, 16, 32, 64, 128)
RANDOM_BOUNDS = [(5, 10), (5, 20), (5, 50), (5, 100), (10, 50), (10, 100)]


def tiny_config(bidirectional=False):
    return md.ModelConfig(feat_dim=8, vgg_channels=(2, 2), enc_layers=1,
                          hidden=8, attn_dim=8, embed_dim=8, vocab="AB",
                          bidirectional=bidirectional)


def drive(stream, frames, plan):
    last = len(plan.boundaries) - 1
    consumed = 0
    out = None
    for i, b in enumerate(plan.boundaries):
        out = stream.feed(frames[consumed:b], is_last=(i == last))
        consumed = b
    return out


def sweep_point(utts, params, cfg, k, s=16):
    """Corpus character BLEU and mean lag for one fixed-interval config."""
    hyps, lags = [], []
    for u in utts:
        plan = fixed_plan(u.n_frames, k=k, s=s, utt_id=u.utt_id)
        tr = simulate(u.frames, plan, DecodePolicy(write_tokens=1),
                      params, cfg, "ulstm-reencode")
        hyps.append(tr.hypothesis)
        delays = tr.delays_ms
        # a silent system has effectively waited out the whole utterance
        lags.append(average_lagging(delays, tr.duration_ms, len(u.target))
                    if delays else tr.duration_ms)
    return bleu(hyps, [u.target for u in utts], tokenize="char"), \
        sum(lags) / len(lags)


class TestStreamingEquivalence:
    def test_criterion_01_incremental_matches_offline(self):
        """100 random utterances, fresh weights each: every unidirectional
        feed reproduces the offline prefix encoding bit for bit, and the
        bidirectional stream's final outputs match full offline encoding."""
        uni_cfg = tiny_config()
        bi_cfg = tiny_config(bidirectional=True)
        rng = np.random.default_rng(400)
        for trial in range(100):
            t_len = int(rng.integers(8, 401))
            frames = rng.uniform(-1, 1, (t_len, uni_cfg.feat_dim)).astype(np.float32)
            k = int(rng.integers(8, 65))
            s = int(rng.integers(8, 33))
            plan = fixed_plan(t_len, k=k, s=s)
            uni_params = md.create_parameters(uni_cfg, seed=trial)
            stream = EncoderStream("ulstm-reencode", uni_params, uni_cfg)
            consumed = 0
            for i, b in enumerate(plan.boundaries):
                out = stream.feed(frames[consumed:b],
                                  is_last=(i == len(plan.boundaries) - 1))
                consumed = b
                offline = md.encode_utterance(frames[:b], uni_params, uni_cfg)
                assert np.array_equal(out.data, offline.data), \
                    "prefix mismatch at T=%d k=%d s=%d feed %d" % (t_len, k, s, i)
            bi_params = md.create_parameters(bi_cfg, seed=trial)
            final = drive(EncoderStream("blstm-reencode", bi_params, bi_cfg),
                          frames, plan)
            offline = md.encode_utterance(frames, bi_params, bi_cfg)
            assert np.array_equal(final.data, offline.data), \
                "bidirectional mismatch at T=%d k=%d s=%d" % (t_len, k, s)


class TestCoverageTiling:
    def test_criterion_02_kept_positions_tile_frame_axis(self):
        """200 random (T, k, s) with k, s in {8, 16, 24}: the kept positions
        of consecutive overlap chunks cover four-frame windows contiguously,
        and their total equals the offline position count."""
        cfg = tiny_config()
        params = md.create_parameters(cfg, seed=3)
        rng = np.random.default_rng(200)
        grid = (8, 16, 24)
        for trial in range(200):
            k = int(rng.choice(grid))
            s = int(rng.choice(grid))
            t_len = int(rng.integers(k + 1, 513))
            frames = rng.uniform(-1, 1, (t_len, cfg.feat_dim)).astype(np.float32)
            stream = EncoderStream("ulstm-overlap", params, cfg)
            drive(stream, frames, fixed_plan(t_len, k=k, s=s))
            starts = [rec.start + 4 * p
                      for rec in stream.chunk_log for p in range(rec.kept)]
            assert starts == [4 * i for i in range(t_len // 4)], \
                "coverage broken for T=%d k=%d s=%d" % (t_len, k, s)
            if trial % 50 == 0:
                offline = md.encode_utterance(frames, params, cfg)
                assert stream.positions == offline.shape[0]


class TestCostComplexity:
    def test_criterion_03_frames_processed_totals(self):
        """T=2000, k=100, s=10: checklist constants for the per-strategy
        frame totals.  The overlap constant assumes a fixed half-stride
        re-read from the second chunk on; the schedule actually re-reads
        half of each chunk's new frames, which costs 45 more on the larger
        second chunk, so this line documents the discrepancy honestly."""
        plan = fixed_plan(2000, k=100, s=10)
        uni_cfg = tiny_config()
        bi_cfg = tiny_config(bidirectional=True)
        uni = md.create_parameters(uni_cfg, seed=0)
        bi = md.create_parameters(bi_cfg, seed=0)
        frames = np.random.default_rng(0).standard_normal((2000, 8)).astype(np.float32)
        costs = {}
        for strategy, params, cfg in (("blstm-reencode", bi, bi_cfg),
                                      ("ulstm-reencode", uni, uni_cfg),
                                      ("ulstm-overlap", uni, uni_cfg)):
            stream = EncoderStream(strategy, params, cfg)
            drive(stream, frames, plan)
            costs[strategy] = stream.cost().frames_processed
        assert costs["blstm-reencode"] == 401_100
        assert costs["ulstm-reencode"] == 200_550
        assert costs["ulstm-overlap"] == 2_950

    def test_criterion_03_wall_clock_ratios(self):
        """Twenty timed repetitions per strategy on one long utterance; the
        model is small enough that the BLAS stays single-threaded.  Only the
        ordering bands are asserted -- exact ratios are hardware-dependent."""
        results = benchmark_decoding(t_frames=2000, k=100, s=10, reps=20, seed=0)
        by = {r.strategy: r for r in results}
        assert by["blstm-reencode"].ratio == 1.0
        assert by["ulstm-reencode"].ratio < 0.7
        assert by["ulstm-overlap"].ratio < 0.2


class TestGradientCorrectness:
    @pytest.mark.parametrize("name,build,shapes", OP_CASES,
                             ids=[c[0] for c in OP_CASES])
    def test_criterion_04_finite_differences(self, name, build, shapes):
        """Every differentiable op agrees with central differences at 1e-3
        relative tolerance on small tensors."""
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        arrays = [rng.uniform(-0.9, 0.9, size=s).astype(np.float32) for s in shapes]
        if name == "maxpool":
            # keep window maxima unique so the subgradient is well defined
            arrays[0] = (np.arange(arrays[0].size, dtype=np.float32)
                         .reshape(arrays[0].shape) * 0.01 + arrays[0] * 1e-3)
        bad = helpers.fd_gradcheck(build, arrays)
        assert bad is None, "gradient mismatch at %r: analytic %g numeric %g" % bad


class TestMetricOracles:
    def test_criterion_05_average_lagging_hand_cases(self):
        ideal = average_lagging([i * 200.0 for i in range(5)], 1000.0, ref_len=5)
        assert abs(ideal) <= 1e-9
        stalled = average_lagging([800.0, 800.0, 800.0], 800.0, ref_len=3)
        assert abs(stalled - 800.0) <= 1e-9 * 800.0
        worked = average_lagging([500.0, 600.0, 1000.0], 1000.0, ref_len=4)
        assert abs(worked - 450.0) <= 1e-9 * 450.0

    def test_criterion_05_difficulty_closed_forms(self):
        for n in (1, 2, 5, 9):
            diag = AlignmentSet("d", n, n, frozenset((i, i) for i in range(1, n + 1)))
            assert lagging_difficulty(diag).value == 1.0
        for n in (2, 4, 7):
            inv = AlignmentSet("i", n, n,
                              frozenset((i, n + 1 - i) for i in range(1, n + 1)))
            assert lagging_difficulty(inv).value == float(n)

    def test_criterion_05_difficulty_exhaustive_oracle(self):
        rng = random.Random(500)
        for trial in range(500):
            src_len = rng.randint(1, 6)
            tgt_len = rng.randint(1, 6)
            pairs = set()
            for _ in range(rng.randint(1, src_len * tgt_len)):
                pairs.add((rng.randint(1, src_len), rng.randint(1, tgt_len)))
            got = lagging_difficulty(AlignmentSet("u", src_len, tgt_len,
                                                  frozenset(pairs)))
            want_value, want_tau = difficulty_reference(src_len, tgt_len, pairs)
            assert abs(got.value - want_value) <= 1e-12, "trial %d" % trial
            assert got.tau == want_tau

    def test_criterion_05_bleu_hand_cases(self):
        assert bleu(["x y z"], ["x y z"]) == 1.0
        hyps = ["the cat sat on the mat", "a small dog barks loudly"]
        refs = ["the cat sat on the big mat", "a small dog barks loudly"]
        # precisions 11/11, 8/9, 6/7, 4/5 over 11 tokens against 12
        want = math.exp(1.0 - 12.0 / 11.0) * ((8 / 9) * (6 / 7) * (4 / 5)) ** 0.25
        assert abs(bleu(hyps, refs) - want) <= 1e-9


class TestTradeoffShape:
    def test_criterion_06_latency_quality_tradeoff(self, trained):
        """The toy model trains to solid held-out quality inside the budget;
        across the fixed-interval sweep, mean lag rises strictly with the
        wait, quality at the largest wait meets offline, and wait and
        quality are non-negatively rank-correlated."""
        cfg, params, held, offline, seconds = trained
        assert seconds <= 1800.0
        assert offline >= 0.8
        points = [sweep_point(held, params, cfg, k) for k in SWEEP_KS]
        bleus = [b for b, _ in points]
        lags = [lag for _, lag in points]
        assert all(a < b for a, b in zip(lags, lags[1:])), \
            "mean lag not strictly increasing: %r" % (lags,)
        assert abs(bleus[-1] - offline) <= 0.05
        # a flat curve (no degradation at any wait) satisfies the rank
        # check vacuously and has no defined correlation
        if len(set(bleus)) > 1:
            rho = stats.spearmanr(SWEEP_KS, bleus).correlation
            assert rho >= 0.0, \
                "wait and quality anti-correlated: %r" % (bleus,)


class TestSegmentationHarness:
    def test_criterion_07_all_policies_emit_rows(self, monotone_corpus,
                                                 trained, tmp_path):
        """Fixed, word-boundary, and random segmentation all sweep cleanly,
        one well-formed table row per configuration; the tightest random
        bounds produce degenerate chunks the engine must still survive."""
        cfg, params = trained[0], trained[1]
        sub = helpers.as_loaded(monotone_corpus[:12])
        jobs = [{"strategy": "ulstm-reencode", "segmentation": "fixed",
                 "k": 16, "s": 16, "N": 1}]
        jobs += [{"strategy": "ulstm-reencode", "segmentation": "words",
                  "k": k, "s": 0, "N": 1} for k in (0, 50, 100)]
        jobs += [{"strategy": "ulstm-reencode", "segmentation": "random",
                  "k": low, "s": high, "N": 1} for low, high in RANDOM_BOUNDS]
        rows = run_sweep(jobs, sub, params, cfg, tmp_path / "sweep",
                         seed=5, tokenize="char")
        assert len(rows) == len(jobs)
        with open(tmp_path / "sweep" / "tradeoff.csv", encoding="utf-8",
                  newline="") as f:
            table = list(csv.reader(f))
        assert table[0] == TRADEOFF_COLUMNS
        assert len(table) == len(jobs) + 1
        seen = set()
        for line in table[1:]:
            strategy, k, s, n, segmentation, b, al, fp, wall = line
            assert strategy == "ulstm-reencode"
            assert segmentation in ("fixed", "words", "random")
            seen.add((segmentation, int(k), int(s), int(n)))
            assert 0.0 <= float(b) <= 1.0
            assert math.isfinite(float(al))
            assert float(fp) > 0 and float(wall) > 0
        assert ("random", 5, 10, 1) in seen


class TestDifficultySubsets:
    def test_criterion_08_reversals_rank_hardest(self, mixed_corpus, trained):
        """On a 90/10 monotone/reversed mix, alignment difficulty pushes at
        least 80% of the reversed utterances into the hardest 50, and the
        easiest subset's quality curve dominates the hardest subset's at
        every shared wait."""
        cfg, params = trained[0], trained[1]
        scores = [lagging_difficulty(u.alignment) for u in mixed_corpus]
        hardest, easiest = extract_subsets(scores, 50)
        reversed_ids = {u.utt_id for u in mixed_corpus if u.reversed_order}
        assert reversed_ids
        placed = len(reversed_ids & set(hardest))
        assert placed >= 0.8 * len(reversed_ids), \
            "only %d of %d reversed utterances in the hardest subset" \
            % (placed, len(reversed_ids))
        by_id = {u.utt_id: u for u in mixed_corpus}
        for k in SWEEP_KS:
            easy_bleu, _ = sweep_point([by_id[i] for i in easiest], params, cfg, k)
            hard_bleu, _ = sweep_point([by_id[i] for i in hardest], params, cfg, k)
            assert easy_bleu > hard_bleu, \
                "no dominance at k=%d: %.4f vs %.4f" % (k, easy_bleu, hard_bleu)
