"""Tests for the neural blocks: front end, encoder, decoder, checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamst import autodiff as ad
from streamst import model as md
from streamst.errors import ConfigError, ContractError, InsufficientFramesError, ShapeError

import helpers


VOCAB = "ABCDEFGHIJ "


@pytest.fixture(scope="module")
def small_cfg():
    return md.ModelConfig(feat_dim=8, vgg_channels=(2, 3), enc_layers=2, hidden=6,
                          attn_dim=5, embed_dim=4, vocab=VOCAB)


@pytest.fixture(scope="module")
def small_params(small_cfg):
    return md.create_parameters(small_cfg, seed=1)


def frames_for(t_len, d, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(t_len, d)).astype(np.float32)


class TestVocab:
    def test_roundtrip(self):
        v = md.Vocab("abc ")
        ids = v.encode("cab a")
        assert v.decode(ids) == "cab a"

    def test_specials_reserved(self):
        v = md.Vocab("ab")
        assert v.encode("a")[0] == md.NUM_SPECIALS
        assert v.decode([md.PAD_ID, md.BOS_ID, md.EOS_ID]) == ""

    def test_unknown_symbol(self):
        with pytest.raises(ConfigError):
            md.Vocab("ab").encode("q")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ConfigError):
            md.Vocab("aba")


@pytest.mark.parametrize("field", ["attn_dim", "embed_dim"])
def test_config_refuses_a_zero_width_layer(field):
    """A zero-width attention scorer weights every position alike forever."""
    with pytest.raises(ConfigError, match="%s must be positive, got 0" % field):
        md.ModelConfig(vocab=VOCAB, **{field: 0})


class TestFrontend:
    @pytest.mark.parametrize("t_len,positions", [(100, 25), (4, 1), (7, 1), (130, 32), (2000, 500)])
    def test_position_count(self, small_cfg, small_params, t_len, positions):
        out = md.vgg_forward(frames_for(t_len, small_cfg.feat_dim), small_params, small_cfg)
        assert out.shape == (positions, small_cfg.frontend_out)

    def test_position_count_formula_property(self, small_cfg, small_params):
        for t_len in range(4, 40):
            out = md.vgg_forward(frames_for(t_len, small_cfg.feat_dim), small_params, small_cfg)
            assert out.shape[0] == (t_len // 2) // 2

    def test_too_short_rejected(self, small_cfg, small_params):
        for t_len in (1, 2, 3):
            with pytest.raises(InsufficientFramesError):
                md.vgg_forward(frames_for(t_len, small_cfg.feat_dim), small_params, small_cfg)

    def test_wrong_feature_width(self, small_cfg, small_params):
        with pytest.raises(ConfigError):
            md.vgg_forward(frames_for(8, small_cfg.feat_dim + 1), small_params, small_cfg)

    def test_edge_frames_see_zero_padding(self, small_cfg, small_params):
        """The first convolution taps zeros beyond the input edges, so
        translating the content changes edge outputs."""
        base = frames_for(12, small_cfg.feat_dim, seed=3)
        shifted = np.concatenate([base[6:], base[:6]], axis=0)
        a = md.vgg_forward(base, small_params, small_cfg).data
        b = md.vgg_forward(shifted, small_params, small_cfg).data
        assert not np.array_equal(a[:1], b[-1:])


class TestLstmStep:
    def test_zero_weights_zero_state(self):
        h = 4
        zeros = (ad.Tensor(np.zeros((1, h), np.float32)), ad.Tensor(np.zeros((1, h), np.float32)))
        wx = ad.Tensor(np.zeros((3, 4 * h), np.float32))
        wh = ad.Tensor(np.zeros((h, 4 * h), np.float32))
        b = ad.Tensor(np.zeros(4 * h, np.float32))
        nh, _, nc = ad.lstm(ad.Tensor(np.ones((1, 3), np.float32)), *zeros, wx, wh, b)
        np.testing.assert_array_equal(nh.data, 0)
        np.testing.assert_array_equal(nc.data, 0)

    def test_saturated_forget_gate_preserves_cell(self):
        h = 3
        rng = np.random.default_rng(2)
        c0 = rng.standard_normal((1, h)).astype(np.float32)
        state = (ad.Tensor(np.zeros((1, h), np.float32)), ad.Tensor(c0))
        wx = ad.Tensor(np.zeros((2, 4 * h), np.float32))
        wh = ad.Tensor(np.zeros((h, 4 * h), np.float32))
        bias = np.zeros(4 * h, np.float32)
        bias[0:h] = -1000.0   # input gate shut
        bias[h:2 * h] = 1000.0  # forget gate wide open
        _, _, nc = ad.lstm(ad.Tensor(np.zeros((1, 2), np.float32)), *state,
                           wx, wh, ad.Tensor(bias))
        np.testing.assert_array_equal(nc.data, c0)

    def test_matches_scalar_reference(self):
        """Cross-check one cell update against a plain-python evaluation."""
        h, d = 3, 2
        rng = np.random.default_rng(9)
        wx = rng.uniform(-0.5, 0.5, (d, 4 * h)).astype(np.float32)
        wh = rng.uniform(-0.5, 0.5, (h, 4 * h)).astype(np.float32)
        b = rng.uniform(-0.5, 0.5, 4 * h).astype(np.float32)
        x = rng.uniform(-1, 1, (1, d)).astype(np.float32)
        h0 = rng.uniform(-1, 1, (1, h)).astype(np.float32)
        c0 = rng.uniform(-1, 1, (1, h)).astype(np.float32)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        want_h, want_c = [], []
        for j in range(h):
            gi = sum(x[0, p] * wx[p, j] for p in range(d)) + sum(h0[0, p] * wh[p, j] for p in range(h)) + b[j]
            gf = sum(x[0, p] * wx[p, h + j] for p in range(d)) + sum(h0[0, p] * wh[p, h + j] for p in range(h)) + b[h + j]
            gg = sum(x[0, p] * wx[p, 2 * h + j] for p in range(d)) + sum(h0[0, p] * wh[p, 2 * h + j] for p in range(h)) + b[2 * h + j]
            go = sum(x[0, p] * wx[p, 3 * h + j] for p in range(d)) + sum(h0[0, p] * wh[p, 3 * h + j] for p in range(h)) + b[3 * h + j]
            c = sig(gf) * c0[0, j] + sig(gi) * math.tanh(gg)
            want_c.append(c)
            want_h.append(sig(go) * math.tanh(c))

        nh, _, nc = ad.lstm(ad.Tensor(x), ad.Tensor(h0), ad.Tensor(c0),
                            ad.Tensor(wx), ad.Tensor(wh), ad.Tensor(b))
        np.testing.assert_allclose(nh.data[0], want_h, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(nc.data[0], want_c, rtol=1e-5, atol=1e-6)


class TestFusedGates:
    """The LSTM runs one tanh over the whole gate row; it must match the
    cell that activates each gate slice on its own."""

    GATE_VALUES = st.one_of(st.sampled_from([0.0, 30.0, -30.0]), st.floats(-30, 30))

    @settings(max_examples=200, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), hidden=st.integers(1, 64),
           d=st.integers(1, 8), scale=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_matches_four_slice_oracle(self, dtype, hidden, d, scale, seed, data):
        """Bit for bit, in float32 and float64; scale 0 makes the gate row
        equal the bias, so exact 0 and +-30 reach the activations."""
        rng = np.random.default_rng(seed)
        b = np.array(data.draw(st.lists(self.GATE_VALUES, min_size=4 * hidden,
                                        max_size=4 * hidden)), dtype=dtype)
        x, h0, c0 = (scale * rng.standard_normal((1, n)).astype(dtype)
                     for n in (d, hidden, hidden))
        wx = scale * rng.standard_normal((d, 4 * hidden)).astype(dtype)
        wh = scale * rng.standard_normal((hidden, 4 * hidden)).astype(dtype)
        nh, _, nc = ad.lstm(ad.Tensor(x, dtype=dtype),
                            ad.Tensor(h0, dtype=dtype), ad.Tensor(c0, dtype=dtype),
                            ad.Tensor(wx, dtype=dtype), ad.Tensor(wh, dtype=dtype),
                            ad.Tensor(b, dtype=dtype))
        want_h, want_c = helpers.lstm_step_loop(x, h0, c0, wx, wh, b)
        assert nh.data.dtype == nc.data.dtype == dtype
        assert nh.data.tobytes() == want_h.tobytes()
        assert nc.data.tobytes() == want_c.tobytes()

    def test_records_one_node_per_layer_call(self):
        """The whole recurrence is one tape node, whatever T and direction."""
        h, d = 4, 3
        rng = np.random.default_rng(5)
        wx, wh, b = (ad.Tensor(rng.uniform(-1, 1, s).astype(np.float32), requires_grad=True)
                     for s in ((d, 4 * h), (h, 4 * h), (4 * h,)))
        for t_len in (1, 2, 7, 40):
            for reverse in (False, True):
                x = ad.Tensor(rng.uniform(-1, 1, (t_len, d)).astype(np.float32))
                with ad.Tape() as tape:
                    hs, nh, nc = ad.lstm(x, *md.zero_state(h), wx, wh, b, reverse=reverse)
                assert len(tape) == 1 and tape.ops[0][0] is hs
                assert hs.shape == (t_len, h) and nh.requires_grad and nc.requires_grad

    def test_gradients_pass_fd_check(self):
        h, d = 3, 2
        rng = np.random.default_rng(6)
        arrays = [rng.uniform(-0.9, 0.9, s).astype(np.float32)
                  for s in ((1, d), (1, h), (1, h), (d, 4 * h), (h, 4 * h), (4 * h,))]

        def build(ts):
            _, nh, nc = ad.lstm(*ts)
            return ad.sum_all(ad.add(ad.tanh(nh), ad.mul(nc, nc)))

        bad = helpers.fd_gradcheck(build, arrays)
        assert bad is None, "gradient mismatch at %r: analytic %g numeric %g" % bad


class TestLstmLayer:
    """The fused recurrence against the cell oracles: its forward equals a
    step loop bit for bit, and its backpropagation through time agrees
    with the gradients of the composed tape-op cell."""

    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), t_len=st.integers(1, 16),
           hidden=st.integers(1, 32), d=st.integers(1, 8), reverse=st.booleans(),
           scale=st.sampled_from([0.0, 0.1, 1.0, 10.0]), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_forward_matches_step_loop(self, dtype, t_len, hidden, d, reverse, scale,
                                       seed, data):
        rng = np.random.default_rng(seed)
        b = np.array(data.draw(st.lists(TestFusedGates.GATE_VALUES, min_size=4 * hidden,
                                        max_size=4 * hidden)), dtype=dtype)
        x = scale * rng.standard_normal((t_len, d)).astype(dtype)
        h, c = (rng.standard_normal((1, hidden)).astype(dtype) for _ in range(2))
        wx = scale * rng.standard_normal((d, 4 * hidden)).astype(dtype)
        wh = scale * rng.standard_normal((hidden, 4 * hidden)).astype(dtype)
        hs, nh, nc = ad.lstm(ad.Tensor(x, dtype=dtype),
                             ad.Tensor(h, dtype=dtype), ad.Tensor(c, dtype=dtype),
                             ad.Tensor(wx, dtype=dtype), ad.Tensor(wh, dtype=dtype),
                             ad.Tensor(b, dtype=dtype), reverse=reverse)
        want = np.empty((t_len, hidden), dtype=dtype)
        for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
            h, c = helpers.lstm_step_loop(x[t:t + 1].copy(), h, c, wx, wh, b)
            want[t] = h[0]
        assert hs.data.dtype == nh.data.dtype == nc.data.dtype == dtype
        assert hs.data.tobytes() == want.tobytes()
        assert nh.data.tobytes() == h.tobytes()
        assert nc.data.tobytes() == c.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), t_len=st.integers(1, 12),
           hidden=st.integers(1, 16), d=st.integers(1, 8), reverse=st.booleans(),
           scale=st.sampled_from([0.0, 0.1, 1.0, 10.0]), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_forward_matches_composed_cell(self, dtype, t_len, hidden, d, reverse, scale,
                                           seed, data):
        """Bit for bit against the cell of tape ops, whose sigmoid is
        ad.sigmoid over the whole gate row and whose cell gate is ad.tanh."""
        rng = np.random.default_rng(seed)
        b = np.array(data.draw(st.lists(st.one_of(TestFusedGates.GATE_VALUES, st.just(-0.0)),
                                        min_size=4 * hidden, max_size=4 * hidden)), dtype=dtype)
        arrays = [scale * rng.standard_normal(s).astype(dtype)
                  for s in ((t_len, d), (1, hidden), (1, hidden), (d, 4 * hidden),
                            (hidden, 4 * hidden))] + [b]
        ts = [ad.Tensor(a, dtype=dtype) for a in arrays]
        hs, h, c = ad.lstm(*ts, reverse=reverse)
        want_hs, want_h, want_c = helpers.lstm_layer_steps(*ts, reverse=reverse)
        for got, want in ((hs, want_hs), (h, want_h), (c, want_c)):
            assert got.data.dtype == want.data.dtype == dtype
            assert got.data.tobytes() == want.data.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), t_len=st.integers(1, 64),
           hidden=st.integers(1, 64), d=st.integers(1, 64), reverse=st.booleans(),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_chunks_with_carried_state_equal_one_pass(self, dtype, t_len, hidden, d, reverse,
                                                      seed, data):
        """Rows split into chunks at arbitrary cuts, each chunk started from
        the (h, c) the previous one returned, give one pass's rows and final
        state bit for bit; a reverse pass runs its chunks last to first.
        Each call must keep its rows apart from every other call's."""
        rng = np.random.default_rng(seed)
        cuts = sorted(data.draw(st.sets(st.integers(1, t_len - 1), max_size=t_len - 1))
                      if t_len > 1 else ())
        x, wx, wh, b = (ad.Tensor(rng.uniform(-1, 1, s), dtype=dtype)
                        for s in ((t_len, d), (d, 4 * hidden), (hidden, 4 * hidden),
                                  (4 * hidden,)))
        state = tuple(ad.Tensor(rng.uniform(-1, 1, (1, hidden)), dtype=dtype) for _ in range(2))
        hs, h, c = ad.lstm(x, *state, wx, wh, b, reverse=reverse)
        chunks = [ad.Tensor(part, dtype=dtype) for part in np.split(x.data, cuts)]
        outs = []
        for chunk in (chunks[::-1] if reverse else chunks):
            part, *state = ad.lstm(chunk, *state, wx, wh, b, reverse=reverse)
            outs.append(part.data)
        joined = np.concatenate(outs[::-1] if reverse else outs)
        assert joined.tobytes() == hs.data.tobytes()
        assert state[0].data.tobytes() == h.data.tobytes()
        assert state[1].data.tobytes() == c.data.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(t_len=st.integers(1, 8), hidden=st.integers(1, 12), d=st.integers(1, 5),
           reverse=st.booleans(), scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
           seed=st.integers(0, 2 ** 16))
    def test_gradients_match_composed_cell(self, t_len, hidden, d, reverse, scale, seed):
        """The loss reads every hidden row, the final h and the final c, with
        weights, so each path into the inputs counts."""
        rng = np.random.default_rng(seed)
        arrays = [scale * rng.uniform(-1, 1, s).astype(np.float32)
                  for s in ((t_len, d), (1, hidden), (1, hidden), (d, 4 * hidden),
                            (hidden, 4 * hidden), (4 * hidden,))]
        weights = [ad.Tensor(rng.uniform(-1, 1, s).astype(np.float32))
                   for s in ((t_len, hidden), (1, hidden), (1, hidden))]

        def grads(layer):
            ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
            with ad.Tape() as tape:
                hs, h, c = layer(*ts, reverse=reverse)
                loss = ad.sum_all(ad.add(ad.add(ad.mul(ad.tanh(hs), weights[0]),
                                                ad.mul(h, weights[1])),
                                         ad.mul(c, weights[2])))
            ad.backward(tape, loss)
            return [t.grad for t in ts]

        for got, want in zip(grads(ad.lstm), grads(helpers.lstm_layer_steps)):
            tol = 1e-5 * max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=tol)

    def test_final_state_alone_reaches_the_inputs(self):
        """A loss that reads only the final c still backpropagates into the
        weights and the initial state."""
        rng = np.random.default_rng(8)
        ts = [ad.Tensor(rng.uniform(-1, 1, s).astype(np.float32), requires_grad=True)
              for s in ((3, 2), (1, 4), (1, 4), (2, 16), (4, 16), (16,))]
        with ad.Tape() as tape:
            _, _, c = ad.lstm(*ts)
            loss = ad.sum_all(c)
        ad.backward(tape, loss)
        assert all(t.grad is not None and np.any(t.grad != 0) for t in ts)

    def test_rejects_a_state_that_would_broadcast(self):
        """A (1, 1) cell state would broadcast over the hidden width unseen."""
        wx, wh, b = (ad.Tensor(np.zeros(s, np.float32)) for s in ((2, 16), (4, 16), (16,)))
        x, h = ad.Tensor(np.zeros((3, 2), np.float32)), ad.Tensor(np.zeros((1, 4), np.float32))
        for c in (ad.Tensor(np.zeros((1, 1), np.float32)), ad.Tensor(np.zeros((1, 4, 1), np.float32))):
            with pytest.raises(ShapeError):
                ad.lstm(x, h, c, wx, wh, b)
        with pytest.raises(ShapeError):
            ad.lstm(ad.Tensor(np.zeros((0, 2), np.float32)), h, h, wx, wh, b)

    @pytest.mark.parametrize("x_dtype,w_dtype", [(np.float64, np.float32),
                                                 (np.float32, np.float64)])
    def test_rejects_operands_of_another_dtype(self, x_dtype, w_dtype):
        """Nothing is cast: weights of one float width with an x and state
        of the other are refused, and the message names all six dtypes."""
        x, h, c = (ad.Tensor(np.zeros(s), dtype=x_dtype) for s in ((3, 2), (1, 4), (1, 4)))
        wx, wh, b = (ad.Tensor(np.zeros(s), dtype=w_dtype) for s in ((2, 16), (4, 16), (16,)))
        names = (np.dtype(x_dtype).name,) * 3 + (np.dtype(w_dtype).name,) * 3
        with pytest.raises(ContractError, match="x %s, h0 %s, c0 %s, wx %s, wh %s, b %s" % names):
            ad.lstm(x, h, c, wx, wh, b)
        lone = ad.Tensor(c.data, dtype=w_dtype)  # a single operand of the other width
        with pytest.raises(ContractError):
            ad.lstm(x, h, lone, *(ad.Tensor(t.data, dtype=x_dtype) for t in (wx, wh, b)))


class TestEncoder:
    def test_streaming_identity_bit_exact(self, small_cfg, small_params):
        """Chunked unidirectional encoding with carried state equals the
        single-pass encoding bit for bit."""
        rng = np.random.default_rng(21)
        for trial in range(10):
            p_len = int(rng.integers(3, 20))
            feats = ad.Tensor(rng.uniform(-1, 1, (p_len, small_cfg.frontend_out)).astype(np.float32))
            full, _ = md.encoder_forward(feats, small_params, small_cfg)
            cut = int(rng.integers(1, p_len))
            a = ad.Tensor(feats.data[:cut])
            b = ad.Tensor(feats.data[cut:])
            out_a, state = md.encoder_forward(a, small_params, small_cfg)
            out_b, _ = md.encoder_forward(b, small_params, small_cfg, init=state)
            chunked = np.concatenate([out_a.data, out_b.data], axis=0)
            assert np.array_equal(chunked, full.data)

    def test_bidirectional_output_width(self, small_params, small_cfg):
        cfg = md.ModelConfig(feat_dim=small_cfg.feat_dim, vgg_channels=small_cfg.vgg_channels,
                             enc_layers=2, hidden=small_cfg.hidden, bidirectional=True,
                             attn_dim=small_cfg.attn_dim, embed_dim=small_cfg.embed_dim,
                             vocab=VOCAB)
        params = md.create_parameters(cfg, seed=4)
        feats = ad.Tensor(frames_for(10, cfg.frontend_out, seed=1))
        out, state = md.encoder_forward(feats, params, cfg)
        assert out.shape == (10, 2 * cfg.hidden)
        assert state is None

    def test_bidirectional_rejects_carried_state(self, small_cfg):
        cfg = md.ModelConfig(feat_dim=small_cfg.feat_dim, vgg_channels=small_cfg.vgg_channels,
                             enc_layers=1, hidden=4, bidirectional=True, vocab=VOCAB)
        params = md.create_parameters(cfg, seed=0)
        feats = ad.Tensor(frames_for(6, cfg.frontend_out, seed=2))
        with pytest.raises(ConfigError):
            md.encoder_forward(feats, params, cfg, init=[md.zero_state(4)])

    def test_last_position_depends_on_first_only_when_bidirectional(self, small_cfg):
        """Flipping an early input must reach the final output through the
        backward direction only."""
        uni = small_cfg
        bi = md.ModelConfig(feat_dim=uni.feat_dim, vgg_channels=uni.vgg_channels,
                            enc_layers=1, hidden=uni.hidden, bidirectional=True, vocab=VOCAB)
        for cfg in (md.ModelConfig(feat_dim=uni.feat_dim, vgg_channels=uni.vgg_channels,
                                   enc_layers=1, hidden=uni.hidden, vocab=VOCAB), bi):
            params = md.create_parameters(cfg, seed=6)
            base = frames_for(12, cfg.frontend_out, seed=5)
            poked = base.copy()
            poked[-1] += 0.5
            a, _ = md.encoder_forward(ad.Tensor(base), params, cfg)
            b, _ = md.encoder_forward(ad.Tensor(poked), params, cfg)
            first_changed = not np.array_equal(a.data[0], b.data[0])
            assert first_changed == cfg.bidirectional


class TestDecodeStep:
    def test_single_position_gets_full_attention(self, small_cfg, small_params):
        enc = frames_for(1, small_cfg.enc_out, seed=7)
        _, _, attn = md.decode_step(md.BOS_ID, md.init_decoder_state(small_cfg),
                                    enc, small_params, small_cfg)
        np.testing.assert_allclose(attn, [[1.0]], atol=1e-7)

    def test_attention_sums_to_one(self, small_cfg, small_params):
        enc = frames_for(9, small_cfg.enc_out, seed=8)
        _, _, attn = md.decode_step(md.BOS_ID, md.init_decoder_state(small_cfg),
                                    enc, small_params, small_cfg)
        assert attn.shape == (1, 9)
        assert abs(float(attn.sum()) - 1.0) < 1e-6

    def test_attention_matches_independent_formula(self, small_cfg, small_params):
        """Recompute the additive attention weights with raw numpy."""
        enc = frames_for(5, small_cfg.enc_out, seed=9).astype(np.float64)
        state = md.init_decoder_state(small_cfg)
        _, _, attn = md.decode_step(md.BOS_ID, state, enc.astype(np.float32),
                                    small_params, small_cfg)
        q = state[1][0].astype(np.float64)
        e = np.tanh(enc @ small_params["attn_enc"].data.astype(np.float64)
                    + q @ small_params["attn_dec"].data.astype(np.float64))
        s = (e @ small_params["attn_v"].data.astype(np.float64))[:, 0]
        w = np.exp(s - s.max())
        w /= w.sum()
        np.testing.assert_allclose(attn[0], w, rtol=1e-4, atol=1e-6)

    def test_logit_width_and_state_advance(self, small_cfg, small_params):
        enc = frames_for(4, small_cfg.enc_out, seed=10)
        state = md.init_decoder_state(small_cfg)
        logits, new_state, _ = md.decode_step(md.BOS_ID, state, enc, small_params, small_cfg)
        assert logits.shape == (1, small_cfg.vocab_size)
        assert not np.array_equal(new_state[0][0], state[0][0])

    def test_empty_encoder_outputs_rejected(self, small_cfg, small_params):
        empty = np.zeros((0, small_cfg.enc_out), np.float32)
        with pytest.raises(ContractError):
            md.decode_step(md.BOS_ID, md.init_decoder_state(small_cfg), empty,
                           small_params, small_cfg)

    def test_bad_token_rejected(self, small_cfg, small_params):
        enc = frames_for(2, small_cfg.enc_out, seed=11)
        with pytest.raises(ContractError):
            md.decode_step(small_cfg.vocab_size, md.init_decoder_state(small_cfg),
                           enc, small_params, small_cfg)

    @pytest.mark.parametrize("operand", ["encoder outputs", "state"])
    def test_dtype_other_than_the_weights_rejected(self, small_cfg, small_params, operand):
        """float64 encoder outputs or state with float32 weights are refused,
        naming both dtypes, rather than promoted."""
        enc = frames_for(3, small_cfg.enc_out, seed=12)
        state = md.init_decoder_state(small_cfg)
        if operand == "state":
            state[1] = (state[1][0].astype(np.float64), state[1][1])
        else:
            enc = enc.astype(np.float64)
        with pytest.raises(ContractError, match="weights' dtype float32 .*got .*float64"):
            md.decode_step(md.BOS_ID, state, enc, small_params, small_cfg)

    @settings(max_examples=100, deadline=None)
    @given(hidden=st.integers(1, 32), attn_dim=st.integers(1, 32), embed_dim=st.integers(1, 16),
           bidirectional=st.booleans(), n_symbols=st.integers(1, 21),
           positions=st.integers(1, 500), steps=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    @example(hidden=32, attn_dim=32, embed_dim=16, bidirectional=True, n_symbols=21,
             positions=500, steps=3, seed=0)
    def test_has_the_bits_of_the_composed_ops(self, hidden, attn_dim, embed_dim, bidirectional,
                                              n_symbols, positions, steps, seed):
        """Logits, attention weights and both new (h, c) pairs equal those of
        helpers.decode_step_ops bit for bit, from a carried state, over
        sizes up to the toy model's and either direction's encoder width."""
        cfg = md.ModelConfig(enc_layers=1, hidden=hidden, bidirectional=bidirectional,
                             attn_dim=attn_dim, embed_dim=embed_dim,
                             vocab="ABCDEFGHIJKLMNOPQRST "[:n_symbols])
        params = md.create_parameters(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        enc = rng.uniform(-1.0, 1.0, size=(positions, cfg.enc_out)).astype(np.float32)
        state = [tuple(rng.uniform(-1.0, 1.0, size=(1, hidden)).astype(np.float32)
                       for _ in range(2)) for _ in range(2)]
        ops_state = [tuple(ad.Tensor(a) for a in pair) for pair in state]
        for token in rng.integers(0, cfg.vocab_size, size=steps).tolist():
            got = md.decode_step(token, state, enc, params, cfg)
            want = helpers.decode_step_ops(token, ops_state, ad.Tensor(enc), params, cfg)
            (logits, state, attn), (want_logits, ops_state, want_attn) = got, want
            pairs = [(logits, want_logits), (attn, want_attn)] + [
                (a, t) for pair, ops_pair in zip(state, ops_state) for a, t in zip(pair, ops_pair)]
            for a, t in pairs:
                assert (a.dtype, a.shape, a.tobytes()) == (t.dtype, t.shape, t.data.tobytes())

    def test_constructs_no_tensor(self, small_cfg, small_params, monkeypatch):
        built = helpers.tensors_built(monkeypatch)
        state = md.init_decoder_state(small_cfg)
        for token in (md.BOS_ID, 3, 4):
            _, state, _ = md.decode_step(token, state, frames_for(6, small_cfg.enc_out),
                                         small_params, small_cfg)
        assert built == []


class TestInit:
    def test_same_seed_same_weights(self, small_cfg):
        a = md.create_parameters(small_cfg, seed=3)
        b = md.create_parameters(small_cfg, seed=3)
        for (na, ta), (nb, tb) in zip(a, b):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self, small_cfg):
        a = md.create_parameters(small_cfg, seed=3)
        b = md.create_parameters(small_cfg, seed=4)
        assert not np.array_equal(a["enc0_fwd_wx"].data, b["enc0_fwd_wx"].data)

    def test_forget_gate_bias_shifted(self, small_cfg):
        params = md.create_parameters(small_cfg, seed=0)
        h = small_cfg.hidden
        for name in ("enc0_fwd_b", "enc1_fwd_b", "dec0_b", "dec1_b"):
            b = params[name].data
            assert np.all(b[h:2 * h] > 0.85)
            assert np.all(np.abs(b[:h]) <= 0.1)

    def test_weights_within_init_range(self, small_cfg):
        params = md.create_parameters(small_cfg, seed=5)
        w = params["attn_enc"].data
        assert np.all(np.abs(w) <= 0.1)


class TestWholeModelGradients:
    def test_sampled_coordinates_pass_fd_check(self, small_cfg):
        """Teacher-forced loss through front end, encoder, attention and
        decoder agrees with central differences on sampled weights."""
        cfg = md.ModelConfig(feat_dim=4, vgg_channels=(2, 2), enc_layers=1, hidden=3,
                             attn_dim=3, embed_dim=2, vocab="AB")
        frames = frames_for(8, cfg.feat_dim, seed=12).astype(np.float64)
        targets = [3, 4, md.EOS_ID]
        base = md.create_parameters(cfg, seed=13)
        arrays = [t.data.astype(np.float64) for _, t in base]
        names = [n for n, _ in base]

        def build(tensors):
            params = md.Parameters(list(zip(names, tensors)))
            feats = md.vgg_forward(md.ad.Tensor(frames, dtype=tensors[0].dtype), params, cfg)
            enc, _ = md.encoder_forward(feats, params, cfg)
            state = helpers.init_decoder_state_ops(cfg, tensors[0].dtype)
            prev = md.BOS_ID
            picked = []
            for tok in targets:
                logits, state, _ = helpers.decode_step_ops(prev, state, enc, params, cfg)
                logp = ad.log(ad.softmax(logits))
                picked.append(ad.slice_last(logp, tok, tok + 1))
                prev = tok
            return ad.scale(ad.sum_all(ad.stack_rows(picked)), -1.0 / len(targets))

        # temporarily mark every tensor differentiable and spot-check a few
        rng = np.random.default_rng(14)
        sampled = sorted(rng.choice(len(arrays), size=6, replace=False).tolist())
        small = [arrays[i] for i in sampled]

        def build_subset(tensors):
            full = []
            for i, a in enumerate(arrays):
                if i in sampled:
                    full.append(tensors[sampled.index(i)])
                else:
                    full.append(md.ad.Tensor(a, dtype=tensors[0].dtype))
            return build(full)

        bad = helpers.fd_gradcheck(build_subset, small, rtol=2e-3, atol=5e-5)
        assert bad is None, "gradient mismatch at %r: analytic %g numeric %g" % bad


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, small_cfg, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, small_cfg, small_params)
        cfg2, params2 = md.load_checkpoint(path)
        assert cfg2 == small_cfg
        for (na, ta), (nb, tb) in zip(small_params, params2):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTHING!" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            md.load_checkpoint(path)

    def test_truncated_rejected(self, small_cfg, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, small_cfg, small_params)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ConfigError):
            md.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, small_cfg, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, small_cfg, small_params)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ConfigError):
            md.load_checkpoint(path)

    def test_bidirectional_roundtrip(self, tmp_path):
        cfg = md.ModelConfig(feat_dim=8, vgg_channels=(2, 3), enc_layers=2, hidden=5,
                             bidirectional=True, vocab=VOCAB)
        params = md.create_parameters(cfg, seed=8)
        path = tmp_path / "bi.ckpt"
        md.save_checkpoint(path, cfg, params)
        cfg2, params2 = md.load_checkpoint(path)
        assert cfg2.bidirectional is True
        assert [n for n, _ in params2] == [n for n, _ in params]
