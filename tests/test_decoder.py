"""Tests for the online read/write controller and trace files."""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from streamst import decoder as dec
from streamst import model as md
from streamst.encoding import STRATEGIES, EncodeCost
from streamst.errors import ConfigError, ContractError, InsufficientFramesError
from streamst.segmentation import SegmentationPlan, fixed_plan


VOCAB = "abcde "


@pytest.fixture(scope="module")
def uni_cfg():
    return md.ModelConfig(feat_dim=8, vgg_channels=(2, 3), enc_layers=1, hidden=6,
                          attn_dim=5, embed_dim=4, vocab=VOCAB)


@pytest.fixture(scope="module")
def uni_params(uni_cfg):
    return md.create_parameters(uni_cfg, seed=3)


@pytest.fixture(scope="module")
def bi_cfg():
    return md.ModelConfig(feat_dim=8, vgg_channels=(2, 3), enc_layers=1, hidden=6,
                          attn_dim=5, embed_dim=4, bidirectional=True, vocab=VOCAB)


@pytest.fixture(scope="module")
def bi_params(bi_cfg):
    return md.create_parameters(bi_cfg, seed=3)


def utterance(t_len, d, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(t_len, d)).astype(np.float32)


def rigged_params(cfg, seed, eos_logit):
    """Copy of fresh parameters with the end-of-sequence logit pinned."""
    params = md.create_parameters(cfg, seed=seed)
    named = [(n, copy.deepcopy(t) if n == "out_b" else t) for n, t in params]
    out = md.Parameters(named)
    out["out_b"].data[md.EOS_ID] = eos_logit
    return out


def check_trace_shape(trace, plan, n_tokens_per_write):
    """Structural invariants every trace must satisfy."""
    assert trace.reads == plan.boundaries
    assert trace.duration_ms == plan.total_frames * dec.FRAME_MS
    assert len(trace.tokens) == len(trace.delays_ms)
    assert trace.delays_ms == sorted(trace.delays_ms)
    read_times = [g * dec.FRAME_MS for g in trace.reads]
    assert set(trace.delays_ms) <= set(read_times)
    for ms in read_times[:-1]:
        assert trace.delays_ms.count(ms) <= n_tokens_per_write


def expected_lines(trace):
    """The json objects a trace's lines hold, built apart from the writer:
    each read, the writes made at its time, then the summary."""
    out, prev, writes = [], 0, list(zip(trace.tokens, trace.delays_ms))
    for g in trace.reads:
        ms = g * dec.FRAME_MS
        out.append({"utt": trace.utt_id, "event": "R", "frames": g - prev, "g": g, "ms": ms})
        prev = g
        while writes and writes[0][1] == ms:
            out.append({"utt": trace.utt_id, "event": "W", "token": writes.pop(0)[0],
                        "g": g, "ms": ms})
    assert not writes
    out.append({"utt": trace.utt_id, "hyp": trace.hypothesis, "truncated": trace.truncated,
                "suppressed_eos": trace.suppressed_eos,
                "cost": {"frames_processed": trace.cost.frames_processed,
                         "chunks": trace.cost.chunks, "wall_ns": trace.cost.wall_ns}})
    return out


def check_round_trip(path, traces):
    """Written lines hold what expected_lines says, the file reads back as
    the traces field for field, and writing those back gives its bytes."""
    dec.write_traces(path, traces)
    written = path.read_bytes()
    assert [json.loads(line) for line in written.decode("utf-8").splitlines()] == \
        [obj for tr in traces for obj in expected_lines(tr)]
    back = dec.read_traces(path)
    assert back == traces
    dec.write_traces(path, back)
    assert path.read_bytes() == written


def without_wall(trace):
    """The trace with its encoder wall time zeroed, for comparing runs."""
    trace.cost.wall_ns = 0
    return trace


class TestSimulate:
    @pytest.mark.parametrize("strategy,bi", [("ulstm-reencode", False),
                                             ("blstm-reencode", True)])
    def test_single_read_equals_offline(self, strategy, bi, uni_cfg, uni_params,
                                        bi_cfg, bi_params):
        cfg, params = (bi_cfg, bi_params) if bi else (uni_cfg, uni_params)
        rng = np.random.default_rng(50)
        for trial in range(10):
            t_len = int(rng.integers(8, 80))
            frames = utterance(t_len, cfg.feat_dim, seed=200 + trial)
            plan = fixed_plan(t_len, k=t_len, s=8, utt_id="u%d" % trial)
            trace = dec.simulate(frames, plan, dec.DecodePolicy(), params, cfg, strategy)
            offline = dec.offline_translate(frames, params, cfg)
            assert trace.hypothesis == offline

    def test_trace_structure(self, uni_cfg, uni_params):
        frames = utterance(60, uni_cfg.feat_dim, seed=4)
        plan = fixed_plan(60, k=16, s=8, utt_id="shape")
        policy = dec.DecodePolicy(write_tokens=2)
        trace = dec.simulate(frames, plan, policy, uni_params, uni_cfg, "ulstm-reencode")
        check_trace_shape(trace, plan, 2)

    def test_write_delays_use_frame_ms(self, uni_cfg, uni_params, tmp_path):
        frames = utterance(40, uni_cfg.feat_dim, seed=5)
        plan = fixed_plan(40, k=8, s=8)
        trace = dec.simulate(frames, plan, dec.DecodePolicy(), uni_params, uni_cfg,
                             "ulstm-reencode")
        assert trace.delays_ms
        dec.write_traces(tmp_path / "t.jsonl", [trace])
        for line in (tmp_path / "t.jsonl").read_text().splitlines()[:-1]:
            e = json.loads(line)
            assert e["ms"] == e["g"] * dec.FRAME_MS

    def test_plan_length_mismatch(self, uni_cfg, uni_params):
        frames = utterance(40, uni_cfg.feat_dim)
        with pytest.raises(ConfigError):
            dec.simulate(frames, fixed_plan(48, k=8, s=8), dec.DecodePolicy(),
                         uni_params, uni_cfg, "ulstm-reencode")

    def test_too_short_utterance_raises(self, uni_cfg, uni_params):
        frames = utterance(3, uni_cfg.feat_dim)
        with pytest.raises(InsufficientFramesError):
            dec.simulate(frames, fixed_plan(3, k=8, s=8), dec.DecodePolicy(),
                         uni_params, uni_cfg, "ulstm-reencode")

    def test_constructs_no_tensor_per_decoder_step(self, uni_cfg, monkeypatch):
        """With end-of-sequence blocked, writing 1 or 8 tokens after one read
        builds the same tensors: the encoder's."""
        params = rigged_params(uni_cfg, seed=13, eos_logit=-1e9)
        frames = utterance(40, uni_cfg.feat_dim, seed=13)
        built = helpers.tensors_built(monkeypatch)
        counts = []
        for cap in (1, 8):
            before = len(built)
            trace = dec.simulate(frames, SegmentationPlan("capped", 40, (40,)),
                                 dec.DecodePolicy(max_target_factor=0.0, max_target_slack=cap),
                                 params, uni_cfg, "ulstm-reencode")
            assert len(trace.tokens) == cap
            counts.append(len(built) - before)
        assert counts[0] == counts[1] > 0

    def test_token_field_is_text(self, uni_cfg, uni_params):
        frames = utterance(60, uni_cfg.feat_dim, seed=6)
        plan = fixed_plan(60, k=16, s=8)
        trace = dec.simulate(frames, plan, dec.DecodePolicy(write_tokens=2),
                             uni_params, uni_cfg, "ulstm-reencode")
        assert all(isinstance(t, str) for t in trace.tokens)
        assert "".join(t for t in trace.tokens if not t.startswith("<")) == trace.hypothesis


class TestEosHandling:
    def test_midstream_eos_suppressed_and_counted(self, uni_cfg):
        params = rigged_params(uni_cfg, seed=7, eos_logit=1e9)
        frames = utterance(40, uni_cfg.feat_dim, seed=7)
        plan = fixed_plan(40, k=8, s=8, utt_id="eager")
        trace = dec.simulate(frames, plan, dec.DecodePolicy(), params, uni_cfg,
                             "ulstm-reencode")
        assert trace.hypothesis == ""
        assert trace.suppressed_eos == len(plan.boundaries) - 1
        assert trace.tokens == [] and trace.delays_ms == []
        assert trace.truncated is False

    def test_suppression_does_not_commit_state(self, uni_cfg):
        """A model that proposes end-of-sequence every step still produces
        identical writes whether or not intermediate reads happened, because
        suppressed steps leave no trace in the decoder state."""
        params = rigged_params(uni_cfg, seed=8, eos_logit=1e9)
        frames = utterance(48, uni_cfg.feat_dim, seed=8)
        chunked = dec.simulate(frames, fixed_plan(48, k=8, s=8), dec.DecodePolicy(),
                               params, uni_cfg, "ulstm-reencode")
        single = dec.simulate(frames, fixed_plan(48, k=48, s=8), dec.DecodePolicy(),
                              params, uni_cfg, "ulstm-reencode")
        assert chunked.hypothesis == single.hypothesis

    def test_blocked_eos_hits_length_cap(self, uni_cfg):
        params = rigged_params(uni_cfg, seed=9, eos_logit=-1e9)
        frames = utterance(40, uni_cfg.feat_dim, seed=9)
        plan = fixed_plan(40, k=8, s=8, utt_id="runaway")
        policy = dec.DecodePolicy(write_tokens=2)
        trace = dec.simulate(frames, plan, policy, params, uni_cfg, "ulstm-reencode")
        assert trace.truncated is True
        cap = policy.cap(40 // 4)
        assert len(trace.tokens) == len(trace.delays_ms) == cap

    def test_blocked_eos_writes_exactly_n_midstream(self, uni_cfg):
        params = rigged_params(uni_cfg, seed=10, eos_logit=-1e9)
        frames = utterance(48, uni_cfg.feat_dim, seed=10)
        plan = fixed_plan(48, k=16, s=8)
        policy = dec.DecodePolicy(write_tokens=3)
        trace = dec.simulate(frames, plan, policy, params, uni_cfg, "ulstm-reencode")
        for bound in plan.boundaries[:-1]:
            assert trace.delays_ms.count(bound * dec.FRAME_MS) == 3

    def test_offline_cap_sets_truncated(self, uni_cfg):
        """One read of the whole utterance that hits the cap is a truncated
        trace holding the loop oracle's offline hypothesis."""
        params = rigged_params(uni_cfg, seed=13, eos_logit=-1e9)
        frames = utterance(40, uni_cfg.feat_dim, seed=13)
        policy = dec.DecodePolicy(max_target_factor=0.0, max_target_slack=5)
        plan = SegmentationPlan("capped", 40, (40,))
        trace = dec.simulate(frames, plan, policy, params, uni_cfg, "ulstm-reencode")
        assert trace.truncated is True
        assert len(trace.tokens) == 5
        assert trace.hypothesis == helpers.offline_translate_loop(frames, params, uni_cfg, policy)


class TestAgainstLoopOracles:
    @settings(max_examples=100, deadline=None)
    @given(strategy=st.sampled_from(STRATEGIES), t_len=st.integers(4, 72),
           cuts=st.lists(st.integers(1, 71), max_size=8), write_tokens=st.integers(1, 3),
           eos_logit=st.sampled_from([None, 1e9, -1e9]), seed=st.integers(0, 3),
           small_cap=st.booleans())
    def test_simulate_and_offline_match(self, uni_cfg, bi_cfg, strategy, t_len, cuts,
                                        write_tokens, eos_logit, seed, small_cap):
        """Random plans, write budgets and caps, with free or rigged
        end-of-sequence, against the one-loop-per-read-kind references."""
        cfg = bi_cfg if strategy == "blstm-reencode" else uni_cfg
        params = (md.create_parameters(cfg, seed=seed) if eos_logit is None
                  else rigged_params(cfg, seed, eos_logit))
        policy = dec.DecodePolicy(write_tokens=write_tokens,
                                  max_target_factor=0.5 if small_cap else 3.0,
                                  max_target_slack=0 if small_cap else 10)
        frames = utterance(t_len, cfg.feat_dim, seed=seed)
        bounds = tuple(sorted({c for c in cuts if c < t_len})) + (t_len,)
        plan = SegmentationPlan("h", t_len, bounds)
        got = dec.simulate(frames, plan, policy, params, cfg, strategy)
        want = helpers.simulate_loop(frames, plan, policy, params, cfg, strategy)
        assert without_wall(got) == without_wall(want)
        assert dec.offline_translate(frames, params, cfg, policy) == \
            helpers.offline_translate_loop(frames, params, cfg, policy)


class TestLatencyShape:
    def test_single_read_plan_has_full_delay(self, uni_cfg):
        params = rigged_params(uni_cfg, seed=11, eos_logit=-1e9)
        frames = utterance(32, uni_cfg.feat_dim, seed=11)
        trace = dec.simulate(frames, fixed_plan(32, k=32, s=8), dec.DecodePolicy(),
                             params, uni_cfg, "ulstm-reencode")
        assert trace.delays_ms
        assert all(d == trace.duration_ms for d in trace.delays_ms)

    def test_first_delay_grows_with_k(self, uni_cfg):
        params = rigged_params(uni_cfg, seed=12, eos_logit=-1e9)
        frames = utterance(96, uni_cfg.feat_dim, seed=12)
        first_delays = []
        for k in (8, 16, 32, 64):
            trace = dec.simulate(frames, fixed_plan(96, k=k, s=8), dec.DecodePolicy(),
                                 params, uni_cfg, "ulstm-reencode")
            first_delays.append(trace.delays_ms[0])
        assert first_delays == sorted(first_delays)
        assert first_delays[0] < first_delays[-1]


class TestTraceFiles:
    def test_roundtrip(self, uni_cfg, uni_params, tmp_path):
        traces = []
        for i, t_len in enumerate((40, 60)):
            frames = utterance(t_len, uni_cfg.feat_dim, seed=20 + i)
            plan = fixed_plan(t_len, k=16, s=8, utt_id="utt%d" % i)
            traces.append(dec.simulate(frames, plan, dec.DecodePolicy(write_tokens=2),
                                       uni_params, uni_cfg, "ulstm-reencode"))
        check_round_trip(tmp_path / "traces.jsonl", traces)

    def test_field_names_are_stable(self, uni_cfg, uni_params, tmp_path):
        frames = utterance(40, uni_cfg.feat_dim, seed=22)
        plan = fixed_plan(40, k=16, s=8, utt_id="fields")
        trace = dec.simulate(frames, plan, dec.DecodePolicy(write_tokens=2),
                             uni_params, uni_cfg, "ulstm-reencode")
        path = tmp_path / "one.jsonl"
        dec.write_traces(path, [trace])
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        for obj in lines[:-1]:
            if obj["event"] == "R":
                assert set(obj) == {"utt", "event", "frames", "g", "ms"}
            else:
                assert set(obj) == {"utt", "event", "token", "g", "ms"}
        final = lines[-1]
        assert set(final) == {"utt", "hyp", "truncated", "suppressed_eos", "cost"}
        assert set(final["cost"]) == {"frames_processed", "chunks", "wall_ns"}

    def test_truncated_file_rejected(self, uni_cfg, uni_params, tmp_path):
        frames = utterance(40, uni_cfg.feat_dim, seed=23)
        plan = fixed_plan(40, k=16, s=8, utt_id="cut")
        trace = dec.simulate(frames, plan, dec.DecodePolicy(write_tokens=2),
                             uni_params, uni_cfg, "ulstm-reencode")
        path = tmp_path / "cut.jsonl"
        dec.write_traces(path, [trace])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError):
            dec.read_traces(path)

    def test_file_cut_inside_an_utterance_without_writes_rejected(self, tmp_path):
        """An utterance that wrote nothing has only R events before its
        summary; cutting the summary off must not drop it silently."""
        path = tmp_path / "cut.jsonl"
        path.write_text('{"utt": "a", "event": "R", "frames": 16, "g": 16, "ms": 160.0}\n'
                        '{"utt": "a", "event": "R", "frames": 8, "g": 24, "ms": 240.0}\n')
        with pytest.raises(ConfigError, match="ends inside"):
            dec.read_traces(path)

    def test_lines_of_another_utterance_rejected(self, uni_cfg, uni_params, tmp_path):
        """B's events followed by C's summary must not read as C with B's
        delays."""
        lines = {}
        for utt_id in ("B", "C"):
            frames = utterance(40, uni_cfg.feat_dim, seed=24)
            trace = dec.simulate(frames, fixed_plan(40, k=16, s=8, utt_id=utt_id),
                                 dec.DecodePolicy(write_tokens=2), uni_params, uni_cfg,
                                 "ulstm-reencode")
            dec.write_traces(tmp_path / "one.jsonl", [trace])
            lines[utt_id] = (tmp_path / "one.jsonl").read_text().splitlines()
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(lines["B"][:-1] + lines["C"][-1:]) + "\n")
        with pytest.raises(ConfigError, match="'C' inside utterance 'B'"):
            dec.read_traces(path)
        path.write_text("\n".join(lines["B"][:1] + lines["C"]) + "\n")
        with pytest.raises(ConfigError, match="'C' inside utterance 'B'"):
            dec.read_traces(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigError):
            dec.read_traces(path)

    R_EVENT = '{"utt": "a", "event": "R", "frames": 16, "g": 16, "ms": 160.0}'
    SUMMARY = ('{"utt": "a", "hyp": "x", "truncated": false, '
               '"suppressed_eos": 0, "cost": {"frames_processed": 16, "chunks": 1, '
               '"wall_ns": 5}}')
    W_EVENT = '{"utt": "a", "event": "W", "token": "x", "g": 16, "ms": 160.0}'

    @pytest.mark.parametrize("lines,message", [
        ([R_EVENT, '{"utt": "a", "hyp": "x"}'], "line 2: cost must be dict, got None"),
        ([R_EVENT, '{"utt": "a", "hyp": "x", "cost": 3}'], "line 2: cost must be dict, got 3"),
        (['{"utt": "a", "event": "R", "frames": 16, "g": 16}', SUMMARY],
         "line 1: ms must be int or float, got None"),
        ([R_EVENT, '{"utt": "a", "event": "W", "token": "x", "g": 16, "ms": "40"}', SUMMARY],
         "line 2: ms must be int or float, got '40'"),
        ([R_EVENT, SUMMARY.replace(', "suppressed_eos": 0', '')],
         "line 2: suppressed_eos must be int, got None"),
        ([R_EVENT, SUMMARY.replace("false", "0")], "line 2: truncated must be bool, got 0"),
        ([R_EVENT, SUMMARY.replace('"chunks": 1', '"chunks": 1.0')],
         "line 2: chunks must be int, got 1.0"),
        ([R_EVENT.replace("160.0", "170.0"), SUMMARY],
         "line 1 is not the line its record writes"),
        ([R_EVENT, W_EVENT.replace("160.0", "240.0"), SUMMARY],
         "line 3: trace 'a' places 0 of its 1 tokens and 1 delays after a read"),
        ([R_EVENT.replace('"g": 16', '"g": 1' + "0" * 400), SUMMARY],
         "line 2: int too large to convert to float"),
        ([R_EVENT.replace('"a"', "5"), SUMMARY.replace('"a"', "5")], "line 1: utt must be str, got 5"),
        (["[]"], "line 1: utt must be str, got None"),
        ([R_EVENT, SUMMARY.replace('"hyp": "x", ', '"hyp": "x", "frame_ms": 10.0, ')],
         "line 2 is not the line its record writes"),
    ], ids=["summary-without-cost", "cost-not-an-object", "event-without-ms", "ms-a-string",
            "summary-without-suppressed-eos", "truncated-not-a-bool", "chunks-a-float",
            "read-time-off-its-frame", "write-at-no-read-time", "g-past-every-float",
            "utt-an-int", "line-not-an-object", "summary-holding-a-frame-duration"])
    def test_malformed_record_rejected(self, tmp_path, lines, message):
        """A record missing a field, or holding one of the wrong type, or
        lines other than the ones its record writes, is a ConfigError naming
        the file and line, not a KeyError or TypeError and not a duration
        of '40'."""
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="bad.jsonl %s" % message):
            dec.read_traces(path)


TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)  # lone surrogates too


@st.composite
def trace_records(draw):
    """Arbitrary consistent traces: increasing reads, writes at read times."""
    reads = tuple(sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=6))))
    tokens, delays = [], []
    for g in reads:
        for _ in range(draw(st.integers(0, 3))):
            tokens.append(draw(st.sampled_from(["<pad>", "<bos>", "a", '"', "\n"]) | TEXT))
            delays.append(g * dec.FRAME_MS)
    utt_id = draw(st.sampled_from(['say "hi"', "two\nlines", "\ud800", ""]) | TEXT)
    counts = st.integers(0, 2 ** 63)
    return dec.DecodeTrace(utt_id, draw(TEXT), reads, tokens, delays,
                           EncodeCost(draw(counts), draw(counts), draw(counts)),
                           draw(st.booleans()), draw(st.integers(0, 1000)))


class TestTraceRoundTrip:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(traces=st.lists(trace_records(), max_size=4))
    def test_arbitrary_records(self, tmp_path, traces):
        check_round_trip(tmp_path / "any.jsonl", traces)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(strategy=st.sampled_from(STRATEGIES), t_len=st.integers(4, 72),
           cuts=st.lists(st.integers(1, 71), max_size=8), write_tokens=st.integers(1, 3),
           eos_logit=st.sampled_from([None, 1e9, -1e9]))
    def test_simulated_traces(self, uni_cfg, bi_cfg, tmp_path, strategy, t_len, cuts,
                              write_tokens, eos_logit):
        cfg = bi_cfg if strategy == "blstm-reencode" else uni_cfg
        params = (md.create_parameters(cfg, seed=1) if eos_logit is None
                  else rigged_params(cfg, 1, eos_logit))
        frames = utterance(t_len, cfg.feat_dim, seed=t_len)
        bounds = tuple(sorted({c for c in cuts if c < t_len})) + (t_len,)
        plan = SegmentationPlan("sim", t_len, bounds)
        trace = dec.simulate(frames, plan, dec.DecodePolicy(write_tokens=write_tokens),
                             params, cfg, strategy)
        check_trace_shape(trace, plan, write_tokens)
        check_round_trip(tmp_path / "sim.jsonl", [trace])

    def test_write_at_no_read_time_rejected(self, tmp_path):
        """A record whose writes could not be placed after a read is not
        written silently short."""
        bad = dec.DecodeTrace("a", "x", (16,), ["x"], [170.0], EncodeCost(16, 1, 5))
        with pytest.raises(ContractError, match="places 0 of its 1 tokens and 1 delays"):
            dec.write_traces(tmp_path / "bad.jsonl", [bad])
        short = dec.DecodeTrace("a", "x", (16,), ["x", "y"], [160.0], EncodeCost(16, 1, 5))
        with pytest.raises(ContractError, match="places 1 of its 2 tokens and 1 delays"):
            dec.write_traces(tmp_path / "bad.jsonl", [short])
