"""Tests for BLEU, average lagging, lagging difficulty, the corpus's alignment
files, and trade-off rows."""

import math
import random

import numpy as np
import pytest

from streamst import metrics as mt
from streamst import synthetic as sy
from streamst.decoder import FRAME_MS, DecodeTrace
from streamst.encoding import EncodeCost
from streamst.errors import ConfigError


def bleu_reference(hyps, refs, max_n=4):
    """Independent corpus BLEU evaluation used as an oracle."""
    hyp_total = 0
    ref_total = 0
    num = {n: 0 for n in range(1, max_n + 1)}
    den = {n: 0 for n in range(1, max_n + 1)}
    for hyp, ref in zip(hyps, refs):
        hw, rw = hyp.split(), ref.split()
        hyp_total += len(hw)
        ref_total += len(rw)
        for n in range(1, max_n + 1):
            seen = {}
            for i in range(len(rw) - n + 1):
                key = " ".join(rw[i:i + n])
                seen[key] = seen.get(key, 0) + 1
            for i in range(len(hw) - n + 1):
                key = " ".join(hw[i:i + n])
                den[n] += 1
                if seen.get(key, 0) > 0:
                    seen[key] -= 1
                    num[n] += 1
    if hyp_total == 0:
        return 0.0
    active = [n for n in range(1, max_n + 1) if den[n] > 0]
    if not active:
        return 0.0
    for n in active:
        if num[n] == 0:
            return 0.0
    log_prec = sum(math.log(num[n] / den[n]) for n in active) / len(active)
    bp = 1.0 if hyp_total >= ref_total else math.exp(1.0 - ref_total / hyp_total)
    return bp * math.exp(log_prec)


class TestBleu:
    def test_identity_scores_one(self):
        refs = ["the cat sat on the mat", "a dog barked"]
        assert mt.bleu(refs, refs) == 1.0

    def test_short_hypothesis_brevity_penalty(self):
        got = mt.bleu(["the cat"], ["the cat sat"])
        assert abs(got - math.exp(-0.5)) < 1e-9

    def test_zero_fourgram_overlap_without_smoothing(self):
        got = mt.bleu(["a b c d e"], ["a b x c d"])  # no common 3- or 4-grams
        assert got == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            mt.bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mt.bleu(["a"], ["a", "b"])

    def test_all_empty_hypotheses_zero(self):
        assert mt.bleu(["", ""], ["a b", "c d"]) == 0.0

    def test_char_mode(self):
        assert mt.bleu(["abcd"], ["abcd"], tokenize="char") == 1.0
        assert mt.bleu(["abcd"], ["abce"], tokenize="char") < 1.0

    def test_clipping_counts_repeats_once(self):
        # "the the the" can claim at most two matches against "the the cat"
        got = mt.bleu(["the the the"], ["the the cat"])
        ref = bleu_reference(["the the the"], ["the the cat"])
        assert abs(got - ref) < 1e-12

    def test_matches_independent_oracle_on_random_corpora(self):
        rng = random.Random(17)
        vocab = list("abcdef")
        for trial in range(40):
            pairs = []
            for _ in range(rng.randint(2, 12)):
                hyp = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 9)))
                ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 9)))
                if rng.random() < 0.3:
                    ref = hyp  # mix in exact matches
                pairs.append((hyp, ref))
            hyps, refs = zip(*pairs)
            got = mt.bleu(list(hyps), list(refs))
            want = bleu_reference(hyps, refs)
            assert abs(got - want) < 1e-12, "trial %d: %r vs %r" % (trial, got, want)

    def test_score_bounded(self):
        rng = random.Random(3)
        for _ in range(20):
            hyp = " ".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            ref = " ".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            assert 0.0 <= mt.bleu([hyp], [ref]) <= 1.0


class TestAverageLagging:
    def test_worked_example(self):
        got = mt.average_lagging([500.0, 600.0, 1000.0], 1000.0, ref_len=4)
        assert abs(got - 450.0) < 1e-9

    def test_evenly_paced_writer_scores_zero(self):
        delays = [i * 200.0 for i in range(5)]
        assert abs(mt.average_lagging(delays, 1000.0, ref_len=5)) < 1e-9

    def test_read_everything_first_scores_full_duration(self):
        assert mt.average_lagging([800.0, 800.0, 800.0], 800.0, ref_len=3) == 800.0

    def test_cutoff_stops_at_first_full_wait(self):
        # later delays past the duration must not drag the mean up
        a = mt.average_lagging([100.0, 900.0], 900.0, ref_len=2)
        b = mt.average_lagging([100.0, 900.0, 900.0, 900.0], 900.0, ref_len=2)
        assert a == b

    def test_no_full_wait_uses_all_tokens(self):
        got = mt.average_lagging([100.0, 200.0], 1000.0, ref_len=2)
        assert abs(got - ((100.0 - 0.0) + (200.0 - 500.0)) / 2) < 1e-9

    def test_scales_linearly_with_time(self):
        delays = [300.0, 500.0, 700.0]
        base = mt.average_lagging(delays, 1000.0, ref_len=3)
        scaled = mt.average_lagging([3 * d for d in delays], 3000.0, ref_len=3)
        assert abs(scaled - 3 * base) < 1e-9

    def test_eager_writer_goes_negative(self):
        assert mt.average_lagging([0.0, 100.0, 1000.0], 1000.0, ref_len=2) < 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            mt.average_lagging([], 1000.0, 3)
        with pytest.raises(ValueError):
            mt.average_lagging([100.0], 1000.0, 0)
        with pytest.raises(ValueError):
            mt.average_lagging([100.0], 0.0, 3)


def difficulty_reference(src_len, tgt_len, pairs):
    """Independent difficulty evaluation scanning all pairs per position."""
    zs = []
    for t in range(1, tgt_len + 1):
        z = 0
        for (i, tt) in pairs:
            if tt <= t and i > z:
                z = i
        if t == tgt_len:
            z = src_len
        zs.append(z)
    tau = None
    for t, z in enumerate(zs, 1):
        if z == src_len:
            tau = t
            break
    total = sum(zs[t - 1] - (src_len / tgt_len) * (t - 1) for t in range(1, tau + 1))
    return total / tau, tau


class TestLaggingDifficulty:
    def align(self, src_len, tgt_len, pairs, utt_id="u"):
        return mt.AlignmentSet(utt_id, src_len, tgt_len, frozenset(pairs))

    def test_monotone_diagonal_scores_one(self):
        for n in (1, 2, 5, 9):
            a = self.align(n, n, {(i, i) for i in range(1, n + 1)})
            assert mt.lagging_difficulty(a).value == 1.0

    def test_full_inversion_scores_source_length(self):
        for n in (2, 4, 7):
            a = self.align(n, n, {(i, n + 1 - i) for i in range(1, n + 1)})
            score = mt.lagging_difficulty(a)
            assert score.value == float(n)
            assert score.tau == 1

    def test_dominated_pairs_change_nothing(self):
        base = self.align(5, 5, {(i, i) for i in range(1, 6)})
        ref = mt.lagging_difficulty(base)
        padded = self.align(5, 5, {(i, i) for i in range(1, 6)} | {(1, 3), (2, 4)})
        got = mt.lagging_difficulty(padded)
        assert got.value == ref.value and got.tau == ref.tau

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            mt.lagging_difficulty(self.align(3, 3, set()))

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ConfigError):
            self.align(3, 3, {(4, 1)})
        with pytest.raises(ConfigError):
            self.align(3, 3, {(0, 1)})

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(23)
        for trial in range(500):
            src_len = rng.randint(1, 6)
            tgt_len = rng.randint(1, 6)
            n_pairs = rng.randint(1, src_len * tgt_len)
            pairs = set()
            while len(pairs) < n_pairs:
                pairs.add((rng.randint(1, src_len), rng.randint(1, tgt_len)))
            got = mt.lagging_difficulty(self.align(src_len, tgt_len, pairs))
            want_value, want_tau = difficulty_reference(src_len, tgt_len, pairs)
            assert abs(got.value - want_value) < 1e-12, "trial %d" % trial
            assert got.tau == want_tau

    def test_running_position_reaches_source_end(self):
        rng = random.Random(29)
        for _ in range(200):
            src_len = rng.randint(1, 8)
            tgt_len = rng.randint(1, 8)
            pairs = {(rng.randint(1, src_len), rng.randint(1, tgt_len))}
            score = mt.lagging_difficulty(self.align(src_len, tgt_len, pairs))
            assert 1 <= score.tau <= tgt_len
            assert score.value <= src_len


class TestSubsets:
    def scores(self, values):
        return [mt.DifficultyScore("u%03d" % i, v, 1) for i, v in enumerate(values)]

    def test_picks_extremes(self):
        hardest, easiest = mt.extract_subsets(self.scores([3.0, 1.0, 2.0]), 1)
        assert hardest == ["u000"]
        assert easiest == ["u001"]

    def test_full_corpus_subsets_are_permutations(self):
        s = self.scores([2.0, 5.0, 1.0, 4.0])
        hardest, easiest = mt.extract_subsets(s, 4)
        assert sorted(hardest) == sorted(easiest) == ["u000", "u001", "u002", "u003"]
        assert hardest == list(reversed(easiest))

    def test_disjoint_when_corpus_is_large_enough(self):
        rng = random.Random(31)
        s = self.scores([rng.random() for _ in range(1000)])
        hardest, easiest = mt.extract_subsets(s, 400)
        assert not set(hardest) & set(easiest)

    def test_ties_break_by_id(self):
        s = self.scores([1.0, 1.0, 1.0])
        hardest, easiest = mt.extract_subsets(s, 2)
        assert hardest == ["u000", "u001"]
        assert easiest == ["u000", "u001"]

    def test_oversized_subset_rejected(self):
        with pytest.raises(ValueError):
            mt.extract_subsets(self.scores([1.0]), 2)


class TestAlignmentFiles:
    def test_roundtrip(self, tmp_path):
        aligns = [
            mt.AlignmentSet("u0", 3, 3, frozenset({(1, 1), (2, 3), (3, 2)})),
            mt.AlignmentSet("u1", 2, 2, frozenset({(1, 2), (2, 1)})),
        ]
        path = tmp_path / "aligns.txt"
        sy.save_alignments(path, aligns)
        back = sy.load_alignments(path, ["u0", "u1"], [3, 2], [3, 2])
        assert back == aligns

    def test_zero_based_on_disk(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0-0 1-1\n")
        (back,) = sy.load_alignments(path, ["u0"], [2], [2])
        assert back.pairs == frozenset({(1, 1), (2, 2)})

    def test_line_count_mismatch(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0-0\n")
        with pytest.raises(ConfigError):
            sy.load_alignments(path, ["u0", "u1"], [1, 1], [1, 1])

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0:0\n")
        with pytest.raises(ConfigError):
            sy.load_alignments(path, ["u0"], [1], [1])

    def test_out_of_range_pair(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("5-0\n")
        with pytest.raises(ConfigError):
            sy.load_alignments(path, ["u0"], [2], [1])


def record(utt_id, hyp, delays, duration, frames=100, wall=50, truncated=False):
    """A trace of one read of the whole utterance, which lasts duration ms."""
    return DecodeTrace(utt_id, hyp, reads=(int(duration / FRAME_MS),), tokens=["x"] * len(delays),
                       delays_ms=delays, cost=EncodeCost(frames, 1, wall), truncated=truncated)


class TestTradeoffTable:
    def test_perfect_hypotheses_score_one(self):
        refs = {"u0": "a b", "u1": "c d e"}
        traces = [record("u0", "a b", [100.0, 200.0], 200.0),
                  record("u1", "c d e", [100.0, 200.0, 300.0], 300.0)]
        rows = mt.tradeoff_table([({"strategy": "x", "k": 8, "s": 8, "N": 1,
                                    "segmentation": "fixed"}, traces)], refs)
        assert len(rows) == 1
        assert rows[0].bleu == 1.0

    def test_lower_latency_config_reports_lower_lag(self):
        refs = {"u0": "a b"}
        eager = [record("u0", "a b", [100.0, 200.0], 400.0)]
        lazy = [record("u0", "a b", [400.0, 400.0], 400.0)]
        rows = mt.tradeoff_table([({"strategy": "x", "k": 1}, eager),
                                  ({"strategy": "x", "k": 9}, lazy)], refs)
        assert rows[0].al_ms < rows[1].al_ms

    def test_missing_reference_refused(self):
        """A row averaged over fewer utterances than its traces could not be
        explained from them, so the table refuses it, naming the utterance."""
        refs = {"u0": "a"}
        traces = [record("u0", "a", [50.0], 50.0), record("zz", "b", [50.0], 50.0)]
        with pytest.raises(ConfigError, match="'zz'"):
            mt.tradeoff_table([({"strategy": "x"}, traces)], refs)

    def test_configuration_without_traces_refused(self):
        with pytest.raises(ConfigError, match="no traces"):
            mt.tradeoff_table([({"strategy": "x"}, [])], {"u0": "a"})

    def test_one_row_per_configuration(self):
        refs = {"u0": "a b"}
        traces = [record("u0", "a b", [100.0], 200.0)]
        results = [({"strategy": "s%d" % i, "k": i}, traces) for i in range(8)]
        rows = mt.tradeoff_table(results, refs)
        assert [r.config["strategy"] for r in rows] == ["s%d" % i for i in range(8)]

    def test_csv_layout(self, tmp_path):
        config = {"strategy": "ulstm-overlap", "k": 100, "s": 10, "N": 1,
                  "segmentation": "fixed"}
        rows = [mt.TradeoffRow(config, 0.25, 512.5, 2995.0, 123456.0, 1)]
        path = tmp_path / "table.csv"
        mt.write_tradeoff_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "strategy,k,s,N,segmentation,BLEU,AL_ms,frames_processed,wall_ns"
        assert lines[1] == "ulstm-overlap,100,10,1,fixed,0.250000,512.500,2995.0,123456.0"

    def test_mean_frames_per_utterance(self):
        refs = {"u0": "a", "u1": "b"}
        traces = [record("u0", "a", [10.0], 10.0, frames=100),
                  record("u1", "b", [10.0], 10.0, frames=300)]
        rows = mt.tradeoff_table([({"strategy": "x"}, traces)], refs)
        assert rows[0].frames_processed == 200.0

    def test_truncated_counts_capped_utterances(self):
        refs = {"u0": "a", "u1": "b", "u2": "c"}
        traces = [record("u0", "a", [10.0], 10.0, truncated=True), record("u1", "b", [10.0], 10.0),
                  record("u2", "c", [10.0], 10.0, truncated=True)]
        assert mt.tradeoff_table([({"strategy": "x"}, traces)], refs)[0].truncated == 2
