"""Tests for the incremental encoding strategies."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamst import encoding as enc
from streamst import model as md
from streamst.errors import ConfigError, StreamClosedError
from streamst.segmentation import fixed_plan


VOCAB = "ABCDE "


@pytest.fixture(scope="module")
def uni_cfg():
    return md.ModelConfig(feat_dim=8, vgg_channels=(2, 3), enc_layers=2, hidden=5,
                          attn_dim=4, embed_dim=3, vocab=VOCAB)


@pytest.fixture(scope="module")
def uni_params(uni_cfg):
    return md.create_parameters(uni_cfg, seed=2)


@pytest.fixture(scope="module")
def bi_cfg():
    return md.ModelConfig(feat_dim=8, vgg_channels=(2, 3), enc_layers=2, hidden=5,
                          attn_dim=4, embed_dim=3, bidirectional=True, vocab=VOCAB)


@pytest.fixture(scope="module")
def bi_params(bi_cfg):
    return md.create_parameters(bi_cfg, seed=2)


def utterance(t_len, d, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(t_len, d)).astype(np.float32)


def run_plan(stream, frames, plan):
    consumed = 0
    for i, b in enumerate(plan.boundaries):
        stream.feed(frames[consumed:b], is_last=(i == len(plan.boundaries) - 1))
        consumed = b
    return stream


class TestStreamContract:
    def test_unknown_strategy(self, uni_params, uni_cfg):
        with pytest.raises(ConfigError):
            enc.EncoderStream("gru-reencode", uni_params, uni_cfg)

    def test_strategy_direction_mismatch(self, uni_params, uni_cfg, bi_params, bi_cfg):
        with pytest.raises(ConfigError):
            enc.EncoderStream("blstm-reencode", uni_params, uni_cfg)
        with pytest.raises(ConfigError):
            enc.EncoderStream("ulstm-overlap", bi_params, bi_cfg)

    def test_feed_after_close_raises(self, uni_params, uni_cfg):
        s = enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg)
        frames = utterance(16, uni_cfg.feat_dim)
        s.feed(frames[:8])
        s.feed(frames[8:], is_last=True)
        with pytest.raises(StreamClosedError):
            s.feed(frames[:4])

    def test_wrong_feature_width(self, uni_params, uni_cfg):
        s = enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg)
        with pytest.raises(ConfigError):
            s.feed(np.zeros((8, uni_cfg.feat_dim + 2), np.float32))

    def test_tiny_utterance_never_produces_output(self, uni_params, uni_cfg):
        s = enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg)
        out = s.feed(utterance(3, uni_cfg.feat_dim), is_last=True)
        assert out is None
        assert s.positions == 0


class TestReencode:
    def test_prefix_outputs_match_offline_bit_exact(self, uni_params, uni_cfg):
        rng = np.random.default_rng(31)
        for trial in range(6):
            t_len = int(rng.integers(20, 120))
            frames = utterance(t_len, uni_cfg.feat_dim, seed=100 + trial)
            plan = fixed_plan(t_len, k=int(rng.integers(4, 20)), s=int(rng.integers(4, 16)))
            s = enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg)
            consumed = 0
            for i, b in enumerate(plan.boundaries):
                out = s.feed(frames[consumed:b], is_last=(i == len(plan.boundaries) - 1))
                consumed = b
                offline = md.encode_utterance(frames[:b], uni_params, uni_cfg)
                assert np.array_equal(out.data, offline.data)

    def test_blstm_final_outputs_match_offline_bit_exact(self, bi_params, bi_cfg):
        frames = utterance(100, bi_cfg.feat_dim, seed=7)
        plan = fixed_plan(100, k=30, s=10)
        s = run_plan(enc.EncoderStream("blstm-reencode", bi_params, bi_cfg), frames, plan)
        offline = md.encode_utterance(frames, bi_params, bi_cfg)
        assert np.array_equal(s.outputs.data, offline.data)
        assert s.outputs.shape[1] == 2 * bi_cfg.hidden

    def test_blstm_revises_earlier_positions(self, bi_params, bi_cfg):
        frames = utterance(32, bi_cfg.feat_dim, seed=8)
        s = enc.EncoderStream("blstm-reencode", bi_params, bi_cfg)
        first = s.feed(frames[:16]).data.copy()
        second = s.feed(frames[16:], is_last=True).data
        assert second.shape[0] > first.shape[0]
        assert not np.array_equal(second[:first.shape[0]], first)

    def test_empty_feed_does_not_reencode(self, uni_params, uni_cfg):
        """A feed without frames, closing or not, leaves a re-encode stream
        as it was: no chunk, no frames processed, the same outputs."""
        frames = utterance(20, uni_cfg.feat_dim, seed=19)
        s = enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg)
        first = s.feed(frames)
        for is_last in (False, True):
            assert s.feed(frames[:0], is_last=is_last) is first
            assert (s.cost().frames_processed, s.cost().chunks) == (20, 1)

    def test_position_counts_follow_prefix_length(self, uni_params, uni_cfg):
        frames = utterance(110, uni_cfg.feat_dim, seed=9)
        s = enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg)
        s.feed(frames[:100])
        assert s.positions == 25
        s.feed(frames[100:], is_last=True)
        assert s.positions == 27


class TestOverlap:
    def test_first_chunk_discard_count(self, uni_params, uni_cfg):
        """A 100-frame first chunk makes 25 positions and keeps 12."""
        s = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        s.feed(utterance(100, uni_cfg.feat_dim))
        assert s.positions == 12
        rec = s.chunk_log[0]
        assert (rec.start, rec.length, rec.kept, rec.discarded) == (0, 100, 12, 13)

    def test_final_chunk_keeps_everything(self, uni_params, uni_cfg):
        frames = utterance(48, uni_cfg.feat_dim, seed=10)
        s = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        s.feed(frames[:32])
        s.feed(frames[32:], is_last=True)
        assert s.chunk_log[-1].discarded == 0

    @pytest.mark.parametrize("splits", [(100, 100), (32, 16, 16), (40, 2, 30), (6,), (100, 0, 100)])
    def test_empty_close_matches_close_on_data(self, uni_params, uni_cfg, splits):
        """Closing with an empty feed encodes the tail the last data chunk
        discarded, exactly as closing on that chunk would have."""
        frames = utterance(sum(splits), uni_cfg.feat_dim, seed=17)
        bounds = np.cumsum((0,) + splits)
        on_data = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        empty = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            on_data.feed(frames[a:b], is_last=(i == len(splits) - 1))
            empty.feed(frames[a:b])
        empty.feed(frames[:0], is_last=True)
        assert empty.positions == on_data.positions
        assert np.array_equal(empty.outputs.data, on_data.outputs.data)
        assert empty.chunk_log == on_data.chunk_log
        assert empty.cost().frames_processed == on_data.cost().frames_processed
        if splits == (100, 100):
            assert empty.positions == 49

    def test_grow_only_earlier_rows_never_change(self, uni_params, uni_cfg):
        frames = utterance(96, uni_cfg.feat_dim, seed=11)
        plan = fixed_plan(96, k=16, s=16)
        s = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        consumed = 0
        snapshot = None
        for i, b in enumerate(plan.boundaries):
            out = s.feed(frames[consumed:b], is_last=(i == len(plan.boundaries) - 1))
            consumed = b
            if snapshot is not None:
                assert out.shape[0] >= snapshot.shape[0]
                assert np.array_equal(out.data[:snapshot.shape[0]], snapshot)
            if out is not None:
                snapshot = out.data.copy()

    @pytest.mark.parametrize("k,s", [(8, 8), (8, 16), (16, 8), (16, 24), (24, 16)])
    def test_kept_positions_tile_prefix(self, uni_params, uni_cfg, k, s):
        """For k and s multiples of 8, kept chunk positions cover the frame
        axis contiguously: 4 frames per position from 0 to 4*floor(T/4)."""
        rng = np.random.default_rng(k * 100 + s)
        for trial in range(6):
            t_len = int(rng.integers(k + 1, 320))
            frames = utterance(t_len, uni_cfg.feat_dim, seed=1000 + trial)
            plan = fixed_plan(t_len, k=k, s=s)
            st = run_plan(enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg),
                          frames, plan)
            starts = []
            for rec in st.chunk_log:
                for p in range(rec.kept):
                    starts.append(rec.start + 4 * p)
            assert starts == [4 * i for i in range(t_len // 4)], \
                "coverage broken for T=%d k=%d s=%d" % (t_len, k, s)
            assert st.positions == t_len // 4

    def test_small_stride_defers_until_window_fills(self, uni_params, uni_cfg):
        frames = utterance(23, uni_cfg.feat_dim, seed=12)
        plan = fixed_plan(23, k=5, s=2)
        st = run_plan(enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg),
                      frames, plan)
        with pytest.raises(StreamClosedError):
            st.feed(frames[:0])
        assert st.positions >= 1
        for rec in st.chunk_log:
            assert rec.length >= enc.MIN_CHUNK_FRAMES

    def test_carried_state_changes_output(self, uni_params, uni_cfg):
        """The second chunk starts from carried state, so its first kept row
        differs from encoding the same frames fresh."""
        frames = utterance(64, uni_cfg.feat_dim, seed=13)
        st = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        st.feed(frames[:32])
        st.feed(frames[32:48])
        rec = st.chunk_log[1]
        chunk = frames[rec.start:rec.start + rec.length]
        fresh = md.encode_utterance(chunk, uni_params, uni_cfg)
        block = st.outputs.data[st.chunk_log[0].kept:]
        assert not np.array_equal(block, fresh.data[:rec.kept])


class TestArbitraryFeeds:
    @settings(max_examples=100, deadline=None)
    @given(t_len=st.integers(0, 200), cuts=st.lists(st.integers(0, 200), max_size=12),
           empty_close=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(t_len=5, cuts=[4], empty_close=False, seed=0)
    def test_stream_invariants(self, uni_params, uni_cfg, bi_params, bi_cfg,
                               t_len, cuts, empty_close, seed):
        """Any split of T frames into feeds, empty and sub-window ones
        included, optionally closed by an empty feed.  An empty feed that
        does not close changes nothing."""
        frames = utterance(t_len, uni_cfg.feat_dim, seed=seed)
        bounds = sorted(min(c, t_len) for c in cuts) + [t_len]
        feeds = list(zip([0] + bounds[:-1], bounds))
        if empty_close:
            feeds.append((t_len, t_len))
        streams = {"ulstm-reencode": enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg),
                   "blstm-reencode": enc.EncoderStream("blstm-reencode", bi_params, bi_cfg),
                   "ulstm-overlap": enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)}
        grown = None
        for i, (a, b) in enumerate(feeds):
            is_last = i == len(feeds) - 1
            for s in streams.values():
                before = (s.outputs, s.cost().frames_processed, len(s.chunk_log))
                s.feed(frames[a:b], is_last=is_last)
                if a == b and not is_last:
                    assert (s.outputs, s.cost().frames_processed, len(s.chunk_log)) == before
            out = streams["ulstm-reencode"].outputs
            if b < enc.MIN_CHUNK_FRAMES:
                assert out is None
            else:
                assert out.data.tobytes() == \
                    md.encode_utterance(frames[:b], uni_params, uni_cfg).data.tobytes()
            out = streams["ulstm-overlap"].outputs
            if grown is not None:
                assert out is not None
                assert out.data[:len(grown)].tobytes() == grown.tobytes()
            grown = None if out is None else out.data.copy()
        final = streams["blstm-reencode"].outputs
        if t_len < enc.MIN_CHUNK_FRAMES:
            assert final is None
        else:
            assert final.data.tobytes() == \
                md.encode_utterance(frames, bi_params, bi_cfg).data.tobytes()
        for name, s in streams.items():
            per_frame = 2 if name == "blstm-reencode" else 1
            assert s.cost().frames_processed == per_frame * sum(r.length for r in s.chunk_log)
            assert (s.outputs is None) == (t_len < enc.MIN_CHUNK_FRAMES), name


class TestClosedStream:
    """A closed stream lets go of its input and keeps everything it
    reports."""

    @staticmethod
    def snapshot(s):
        out = None if s.outputs is None else s.outputs.data.tobytes()
        return out, list(s.chunk_log), s.cost()

    @pytest.mark.parametrize("strategy", enc.STRATEGIES)
    @pytest.mark.parametrize("splits", [(40, 20), (4, 1), (2, 1), (30, 10, 2), (24, 0)])
    def test_close_releases_input(self, uni_params, uni_cfg, bi_params, bi_cfg,
                                  strategy, splits):
        """Splits whose last feed closes.  The closing chunk is shorter than
        the front end window, and dropped, for (2, 1) under every strategy
        and for (4, 1) under overlap; (24, 0) closes with an empty feed."""
        params, cfg = (bi_params, bi_cfg) if strategy == "blstm-reencode" else (uni_params, uni_cfg)
        frames = utterance(sum(splits), cfg.feat_dim, seed=23)
        s = enc.EncoderStream(strategy, params, cfg)
        bounds = np.cumsum((0,) + splits)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            s.feed(frames[a:b], is_last=(i == len(splits) - 1))
        assert s._buffer is None and s._tail is None
        if strategy == "ulstm-reencode" and sum(splits) >= enc.MIN_CHUNK_FRAMES:
            assert np.array_equal(s.outputs.data,
                                  md.encode_utterance(frames, params, cfg).data)
        before = self.snapshot(s)
        for more in (frames[:4], frames[:0]):
            with pytest.raises(StreamClosedError):
                s.feed(more)
            with pytest.raises(StreamClosedError):
                s.feed(more, is_last=True)
        assert self.snapshot(s) == before

    def test_short_closing_chunk_dropped(self, uni_params, uni_cfg):
        """An overlap chunk of 3 frames at close encodes none of its frames;
        the stream keeps the position its first chunk held back, as an
        empty close keeps it."""
        frames = utterance(5, uni_cfg.feat_dim, seed=24)
        short, empty = (enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
                        for _ in range(2))
        for s, last in ((short, frames[4:]), (empty, frames[4:4])):
            s.feed(frames[:4])
            s.feed(last, is_last=True)
        assert short.chunk_log == [enc.ChunkRecord(0, 4, 1, 0)]
        assert self.snapshot(short)[:2] == self.snapshot(empty)[:2]

    def test_empty_close_of_overlap_stream(self, uni_params, uni_cfg):
        """The empty close encodes the discarded tail, then drops it with
        the input; what it emitted stays."""
        frames = utterance(40, uni_cfg.feat_dim, seed=25)
        s = enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg)
        s.feed(frames)
        assert s.chunk_log == [enc.ChunkRecord(0, 40, 5, 5)]
        s.feed(frames[:0], is_last=True)
        assert s.chunk_log == [enc.ChunkRecord(0, 40, 10, 0)]
        assert np.array_equal(s.outputs.data,
                              md.encode_utterance(frames, uni_params, uni_cfg).data)
        assert s._buffer is None and s._tail is None
        before = self.snapshot(s)
        with pytest.raises(StreamClosedError):
            s.feed(frames[:0], is_last=True)
        assert self.snapshot(s) == before


class TestCost:
    def test_exact_frame_counts_small_case(self, uni_params, uni_cfg, bi_params, bi_cfg):
        """k=16, s=8, T=64: re-encode sums every prefix (280 frames, doubled
        bidirectionally), overlap pays 16 + 16 + 5 * 12 = 92."""
        frames = utterance(64, uni_cfg.feat_dim, seed=14)
        plan = fixed_plan(64, k=16, s=8)
        re = run_plan(enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg), frames, plan)
        bi = run_plan(enc.EncoderStream("blstm-reencode", bi_params, bi_cfg), frames, plan)
        ov = run_plan(enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg), frames, plan)
        assert re.cost().frames_processed == 280
        assert bi.cost().frames_processed == 560
        assert ov.cost().frames_processed == 92
        assert re.cost().chunks == 7 and ov.cost().chunks == 7

    def test_overlap_frames_match_chunk_log(self, uni_params, uni_cfg):
        frames = utterance(200, uni_cfg.feat_dim, seed=15)
        plan = fixed_plan(200, k=24, s=16)
        st = run_plan(enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg), frames, plan)
        assert st.cost().frames_processed == sum(r.length for r in st.chunk_log)

    def test_overlap_long_utterance_chunk_arithmetic(self, uni_params, uni_cfg):
        """T=2000, k=100, s=10: chunk 1 reads k = 100; chunk 2 reads
        s + half(k) = 10 + 50 = 60; the 189 later chunks read
        s + half(s) = 15 each — 100 + 60 + 189 * 15 = 2995 frames.

        A stride of 10 is not aligned to the four-frame window, so each
        15-frame chunk yields 3 positions and discards 1: kept positions
        under-cover the frame axis (405 of the 500 offline positions).
        Strides that are multiples of 8 tile exactly (property above)."""
        frames = utterance(2000, uni_cfg.feat_dim, seed=18)
        st = run_plan(enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg),
                      frames, fixed_plan(2000, k=100, s=10))
        lengths = [r.length for r in st.chunk_log]
        assert lengths[0] == 100
        assert lengths[1] == 60
        assert lengths[2:] == [15] * 189
        assert st.cost().frames_processed == 2995
        kept = [r.kept for r in st.chunk_log]
        assert kept[0] == 12 and kept[1] == 14
        assert kept[2:-1] == [2] * 188 and kept[-1] == 3
        assert st.positions == 405

    def test_cost_ordering(self, uni_params, uni_cfg, bi_params, bi_cfg):
        frames = utterance(240, uni_cfg.feat_dim, seed=16)
        plan = fixed_plan(240, k=16, s=8)
        re = run_plan(enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg), frames, plan)
        bi = run_plan(enc.EncoderStream("blstm-reencode", bi_params, bi_cfg), frames, plan)
        ov = run_plan(enc.EncoderStream("ulstm-overlap", uni_params, uni_cfg), frames, plan)
        assert ov.cost().frames_processed < re.cost().frames_processed
        assert 2 * re.cost().frames_processed == bi.cost().frames_processed

    def test_wall_clock_accumulates(self, uni_params, uni_cfg):
        frames = utterance(40, uni_cfg.feat_dim, seed=17)
        st = run_plan(enc.EncoderStream("ulstm-reencode", uni_params, uni_cfg),
                      frames, fixed_plan(40, k=20, s=10))
        assert st.cost().wall_ns > 0
