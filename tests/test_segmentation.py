"""Tests for read scheduling policies and boundary files."""

import logging

import pytest
from hypothesis import given, settings, strategies as st

from streamst import segmentation as seg
from streamst.errors import ConfigError, EmptyUtteranceError


class TestFixedPlan:
    def test_wait_then_stride(self):
        plan = seg.fixed_plan(130, k=100, s=10)
        assert plan.boundaries == (100, 110, 120, 130)
        assert plan.segment_sizes == (100, 10, 10, 10)

    def test_k_beyond_utterance_reads_everything_once(self):
        assert seg.fixed_plan(95, k=100, s=10).boundaries == (95,)

    def test_zero_k_starts_with_stride(self):
        assert seg.fixed_plan(25, k=0, s=10).boundaries == (10, 20, 25)

    def test_short_final_segment(self):
        assert seg.fixed_plan(27, k=8, s=8).boundaries == (8, 16, 24, 27)

    def test_empty_utterance(self):
        with pytest.raises(EmptyUtteranceError):
            seg.fixed_plan(0, k=8, s=8)

    def test_bad_stride(self):
        with pytest.raises(ConfigError):
            seg.fixed_plan(20, k=8, s=0)

    def test_negative_k(self):
        with pytest.raises(ConfigError):
            seg.fixed_plan(20, k=-1, s=4)

    @pytest.mark.parametrize("k", [0, 8, 32, 100, 200])
    @pytest.mark.parametrize("s", [4, 10, 16])
    def test_sweep_configs_always_valid(self, k, s):
        for t_len in (5, 50, 130, 301):
            plan = seg.fixed_plan(t_len, k=k, s=s)
            assert plan.boundaries[-1] == t_len
            assert all(sz >= 1 for sz in plan.segment_sizes)


class TestOracleWordPlan:
    def words(self, ends):
        spans, prev = [], 0
        for e in ends:
            spans.append(seg.WordSpan("w", prev, e))
            prev = e
        return spans

    def test_first_read_reaches_k(self):
        plan = seg.oracle_word_plan(130, self.words([40, 80, 120]), k=100)
        assert plan.boundaries == (120, 130)

    def test_zero_k_reads_word_by_word(self):
        plan = seg.oracle_word_plan(120, self.words([40, 80, 120]), k=0)
        assert plan.boundaries == (40, 80, 120)

    def test_k_beyond_last_word_reads_everything(self):
        plan = seg.oracle_word_plan(130, self.words([40, 80, 120]), k=125)
        assert plan.boundaries == (130,)

    def test_trailing_frames_join_final_read(self):
        plan = seg.oracle_word_plan(100, self.words([40, 80]), k=0)
        assert plan.boundaries == (40, 80, 100)

    def test_no_words_reads_everything(self):
        assert seg.oracle_word_plan(60, [], k=0).boundaries == (60,)

    def test_gap_logs_warning(self, caplog):
        spans = [seg.WordSpan("a", 0, 40), seg.WordSpan("b", 48, 80)]
        with caplog.at_level(logging.WARNING):
            seg.oracle_word_plan(80, spans, k=0, utt_id="u1")
        assert any("uncovered" in r.message for r in caplog.records)

    def test_overlapping_spans_rejected(self):
        spans = [seg.WordSpan("a", 0, 40), seg.WordSpan("b", 30, 60)]
        with pytest.raises(ConfigError):
            seg.oracle_word_plan(60, spans, k=0)

    def test_span_past_end_rejected(self):
        with pytest.raises(ConfigError):
            seg.oracle_word_plan(50, [seg.WordSpan("a", 0, 60)], k=0)


class TestRandomPlan:
    def test_degenerate_bounds_fixed_stride(self):
        plan = seg.random_plan(35, low=10, high=10, seed=0)
        assert plan.boundaries == (10, 20, 30, 35)

    def test_same_seed_same_plan(self):
        a = seg.random_plan(300, low=5, high=10, seed=7)
        b = seg.random_plan(300, low=5, high=10, seed=7)
        assert a.boundaries == b.boundaries

    def test_different_seeds_differ(self):
        a = seg.random_plan(300, low=5, high=50, seed=1)
        b = seg.random_plan(300, low=5, high=50, seed=2)
        assert a.boundaries != b.boundaries

    @pytest.mark.parametrize("low,high", [(5, 10), (30, 60), (60, 100), (100, 150),
                                          (150, 200), (200, 300)])
    def test_sizes_within_bounds(self, low, high):
        for seed in range(5):
            plan = seg.random_plan(500, low=low, high=high, seed=seed)
            sizes = plan.segment_sizes
            assert all(low <= sz <= high for sz in sizes[:-1])
            assert 1 <= sizes[-1] <= high
            assert plan.boundaries[-1] == 500

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            seg.random_plan(100, low=0, high=10, seed=0)
        with pytest.raises(ConfigError):
            seg.random_plan(100, low=20, high=10, seed=0)


class TestPlanValidation:
    def test_boundaries_must_be_increasing(self):
        with pytest.raises(ConfigError):
            seg.SegmentationPlan("u", 30, (10, 10, 30))

    def test_boundaries_must_reach_end(self):
        with pytest.raises(ConfigError):
            seg.SegmentationPlan("u", 30, (10, 20))

    def test_boundaries_must_exist(self):
        with pytest.raises(ConfigError):
            seg.SegmentationPlan("u", 30, ())


class TestBoundaryFiles:
    def test_roundtrip(self, tmp_path):
        table = {
            "utt0": [seg.WordSpan("", 0, 40), seg.WordSpan("", 40, 88)],
            "utt1": [seg.WordSpan("", 0, 56)],
            "utt2": [],
        }
        path = tmp_path / "bounds.tsv"
        seg.save_word_boundaries(path, table)
        back = seg.load_word_boundaries(path)
        assert back == table

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("utt0\t0:40\nutt1\tnot-a-span\n")
        with pytest.raises(ConfigError) as e:
            seg.load_word_boundaries(path)
        assert "line 2" in str(e.value)

    @pytest.mark.parametrize("utt_id", ["a\tb", "a\nb", "a\rb", "\n"])
    def test_id_with_tab_or_line_break_rejected(self, tmp_path, utt_id):
        path = tmp_path / "bounds.tsv"
        with pytest.raises(ConfigError):
            seg.save_word_boundaries(path, {"ok": [], utt_id: [seg.WordSpan("", 0, 4)]})
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(table=st.dictionaries(
        st.text(st.characters(exclude_characters="\t\n\r")),
        st.lists(st.builds(seg.WordSpan, st.just(""), st.integers(), st.integers()), max_size=6),
        max_size=6))
    def test_roundtrip_any_table(self, tmp_path_factory, table):
        path = tmp_path_factory.getbasetemp() / "any-bounds.tsv"
        seg.save_word_boundaries(path, table)
        back = seg.load_word_boundaries(path)
        assert back == table
        assert list(back) == list(table)

    def test_duplicate_utterance_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("utt0\t0:40\nutt0\t0:40\n")
        with pytest.raises(ConfigError):
            seg.load_word_boundaries(path)
