"""Tests for the reverse-mode autodiff core."""

import inspect
import math
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from streamst import autodiff as ad
from streamst.errors import ContractError, ShapeError

import helpers


def t(data, grad=False, dtype=np.float32):
    return ad.Tensor(data, requires_grad=grad, dtype=dtype)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(t([[1.0, 0.0], [0.0, 1.0]]), t([[3.0], [4.0]]))
        assert out.data.tolist() == [[3.0], [4.0]]

    def test_inner_product(self):
        out = ad.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        got = ad.matmul(t(a), t(b)).data
        want = helpers.matmul_loop(a, b)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as e:
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            ad.matmul(t(np.zeros(3)), t(np.zeros((3, 2))))


class TestMixedDtypes:
    """Ops of two or more tensors refuse mixed float widths in either
    operand order instead of casting to the first operand's dtype."""

    @pytest.mark.parametrize("first,second", [(np.float32, np.float64),
                                              (np.float64, np.float32)])
    @pytest.mark.parametrize("op", [ad.add, ad.matmul])
    def test_both_operand_orders_rejected(self, op, first, second):
        b_shape = (2, 2) if op is ad.matmul else (1, 2)
        a, b = t(np.ones((1, 2)), dtype=first), t(np.ones(b_shape), dtype=second)
        names = (np.dtype(first).name, np.dtype(second).name)
        with pytest.raises(ContractError, match="needs one dtype, got %s, %s" % names):
            op(a, b)

    def test_structural_ops_rejected(self):
        a, b = t(np.ones((1, 2))), t(np.ones((1, 2)), dtype=np.float64)
        for op in (ad.concat_last, lambda x, y: ad.stack_rows([x, y]), ad.sub, ad.mul):
            with pytest.raises(ContractError):
                op(a, b)

    def test_conv2d_float64_bias_rejected(self):
        x, k = t(np.ones((1, 4, 4))), t(np.ones((2, 1, 3, 3)))
        with pytest.raises(ContractError, match="conv2d needs one dtype, got "
                                                "float32, float32, float64"):
            ad.conv2d(x, k, t(np.zeros(2), dtype=np.float64))


class TestElementwise:
    def test_tanh_zero(self):
        assert ad.tanh(t([0.0])).data[0] == 0.0

    def test_sigmoid_one(self):
        got = float(ad.sigmoid(t([1.0])).data[0])
        assert abs(got - 1.0 / (1.0 + math.exp(-1.0))) < 1e-6

    def test_sigmoid_extreme_inputs_bounded(self):
        out = ad.sigmoid(t([-500.0, 500.0])).data
        assert out[0] == 0.0 and out[1] == 1.0

    def test_softmax_uniform(self):
        out = ad.softmax(t([[0.0, 0.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-7)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5)).astype(np.float32)
        a = ad.softmax(t(x)).data
        b = ad.softmax(t(x + 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_broadcast_row_over_matrix(self):
        out = ad.add(t([[1.0, 2.0], [3.0, 4.0]]), t([10.0, 20.0]))
        assert out.data.tolist() == [[11.0, 22.0], [13.0, 24.0]]

    def test_broadcast_mismatch_raises(self):
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeError, match=r"^cannot broadcast \(2, 3\) with \(2, 2\)$"):
                op(t(np.zeros((2, 3))), t(np.zeros((2, 2))))

    def test_exp_log_roundtrip(self):
        x = t([[0.5, 1.5, 2.5]])
        back = ad.log(ad.exp(x)).data
        np.testing.assert_allclose(back, x.data, rtol=1e-6)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 5, 5)).astype(np.float32)
        k = np.zeros((1, 1, 1, 1), dtype=np.float32)
        k[0, 0, 0, 0] = 1.0
        out = ad.conv2d(t(x), t(k), padding="same")
        np.testing.assert_array_equal(out.data, x)

    def test_averaging_kernel_valid(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        k = np.full((1, 1, 3, 3), 1.0 / 9.0, dtype=np.float32)
        out = ad.conv2d(t(x), t(k), padding="valid")
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out.data, 1.0, rtol=1e-6)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_bit_identical_to_scalar_loop(self, padding):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 7, 6)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = ad.conv2d(t(x), t(k), t(b), padding=padding).data
        want = helpers.conv2d_loop(x, k, b, padding=padding)
        assert got.shape == want.shape
        assert np.array_equal(got, want), "conv forward differs from the scalar loop"

    @settings(max_examples=100, deadline=None)
    @given(c_in=st.integers(1, 4), c_out=st.integers(1, 4), h=st.integers(3, 9),
           w=st.integers(3, 9), kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
           padding=st.sampled_from(["same", "valid"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_loop_oracles(self, c_in, c_out, h, w, kh, kw, padding, seed):
        assume(padding == "same" or (h >= kh and w >= kw))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c_in, h, w)).astype(np.float32)
        k = rng.standard_normal((c_out, c_in, kh, kw)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        want = helpers.conv2d_loop(x, k, b, padding=padding)
        g = rng.standard_normal(want.shape).astype(np.float32)

        def run():
            tx, tk, tb = t(x, grad=True), t(k, grad=True), t(b, grad=True)
            with ad.Tape() as tape:
                y = ad.conv2d(tx, tk, tb, padding=padding)
                loss = ad.sum_all(ad.mul(y, t(g)))
            ad.backward(tape, loss)
            return y.data, tx.grad, tk.grad, tb.grad

        y, dx, dk, db = run()
        assert np.array_equal(y, want), "conv forward differs from the scalar loop"
        assert all(np.array_equal(a, c) for a, c in zip(run()[1:], (dx, dk, db)))
        # Each gradient entry is a float32 sum of n products, summed in another
        # order than the oracle's; both lie within (n + 1) * eps / 2 * sum|terms|
        # of the exact value.  The oracle on absolute values gives sum|terms|.
        ho, wo = want.shape[1:]
        eps = np.finfo(np.float32).eps
        terms = (c_out * kh * kw, ho * wo, ho * wo)
        oracle = helpers.conv2d_backward_loop(x, k, g, padding=padding)
        magnitude = helpers.conv2d_backward_loop(np.abs(x), np.abs(k), np.abs(g), padding=padding)
        for name, got, ref, mag, n in zip(("input", "kernel", "bias"), (dx, dk, db),
                                          oracle, magnitude, terms):
            assert np.all(np.abs(got - ref) <= (n + 1) * eps * mag), "%s gradient off" % name

    @settings(max_examples=60, deadline=None)
    @given(c_in=st.integers(1, 8), c_out=st.integers(1, 8), kh=st.sampled_from([1, 3, 5]),
           kw=st.sampled_from([1, 3, 5]), padding=st.sampled_from(["same", "valid"]),
           seed=st.integers(0, 2 ** 32 - 1), dtype=st.sampled_from([np.float32, np.float64]),
           data=st.data())
    def test_matches_loop_oracle_over_long_time_axes(self, c_in, c_out, kh, kw, padding,
                                                     seed, dtype, data):
        # H runs to 600 so that the forward's scratch tiles and their short
        # last tile are crossed, and tiles of either side of the small-buffer
        # rule; the oracle's cost caps H for wide layers
        ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
        w = data.draw(st.integers(kw - 2 * pw, 24), label="w")
        wo = w + 2 * pw - kw + 1
        low = kh - 2 * ph
        high = max(low, min(600, 400_000 // (c_in * c_out * kh * kw * wo)))
        h = data.draw(st.integers(max(low, high // 2), high), label="h")
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c_in, h, w)).astype(dtype)
        k = rng.standard_normal((c_out, c_in, kh, kw)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        got = ad.conv2d(t(x, dtype=dtype), t(k, dtype=dtype), t(b, dtype=dtype),
                        padding=padding).data
        want = helpers.conv2d_loop(x, k, b, padding=padding)
        assert got.shape == want.shape
        assert np.array_equal(got, want), "conv forward differs from the scalar loop"

    @pytest.mark.parametrize("c_in, side", [(1, 5), (4, 3)])
    def test_single_output_sums_its_terms_in_loop_order(self, c_in, side):
        # bias + c_in * side**2 products: 1e8 + 1 rounds back to 1e8, -1e8
        # cancels it, and the ones that follow count up from 0; a pairwise
        # sum of the terms, as a reduce to one element makes, gives another
        # value
        x = np.ones((c_in, side, side), dtype=np.float32)
        x[0, 0, 1] = -1e8
        k = np.ones((1, c_in, side, side), dtype=np.float32)
        b = np.array([1e8], dtype=np.float32)
        want = [[[c_in * side * side - 2.0]]]
        got = ad.conv2d(t(x), t(k), t(b), padding="valid").data
        assert helpers.conv2d_loop(x, k, b, padding="valid").tolist() == want
        assert got.tolist() == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in, c_out, m, bufsize, switches", [
        (1, 8, 127, 8192, (0, 0)),  # fewer columns than _INPLACE_MIN_COLUMNS
        (1, 8, 128, 8192, (1, 1)),
        (1, 1, 910, 8192, (0, 0)),  # 8,190 products, under _INPLACE_MIN_PRODUCTS
        (1, 1, 911, 8192, (1, 1)),
        (12, 1, 600, 8192, (1, 3)),  # groups of 11 and 1 channels, or 5, 5 and 2
        (1, 1, 2730, 8192, (1, 1)),
        (1, 1, 2731, 8192, (0, 0)),  # 3 m at or above the buffer
        (1, 1, 1365, 4096, (1, 1)),
        (1, 1, 1366, 4096, (0, 0)),
    ])
    def test_small_buffer_rule_keeps_the_loop_bits(self, monkeypatch, dtype, c_in, c_out, m,
                                                   bufsize, switches):
        # One tile of m columns on each side of every bound of the rule: the
        # switched multiplies (switches counts them in float32 and float64)
        # run under m // 16 * 16, the output equals the scalar loop's, and
        # the caller's buffer size is back afterwards
        rng = np.random.default_rng(m)
        x = rng.standard_normal((c_in, m + 2, 3)).astype(dtype)
        k = rng.standard_normal((c_out, c_in, 3, 3)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        sizes, setbufsize = [], np.setbufsize
        old = setbufsize(bufsize)
        try:
            monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or setbufsize(size))
            got = ad.conv2d(t(x, dtype=dtype), t(k, dtype=dtype), t(b, dtype=dtype),
                            padding="valid").data
            assert np.getbufsize() == bufsize
        finally:
            setbufsize(old)
        assert sizes == [m // 16 * 16, bufsize] * switches[dtype == np.float64]
        assert np.array_equal(got, helpers.conv2d_loop(x, k, b, padding="valid"))

    def test_buffer_size_is_restored_when_the_multiply_raises(self, monkeypatch):
        def multiply(*args, **kwargs):
            raise FloatingPointError("multiply under a buffer of %d" % np.getbufsize())

        x = np.ones((1, 202, 3), dtype=np.float32)
        k = np.ones((8, 1, 3, 3), dtype=np.float32)
        before = np.getbufsize()
        monkeypatch.setattr(np, "multiply", multiply)
        with pytest.raises(FloatingPointError, match="under a buffer of 192$"):
            ad.conv2d(t(x), t(k), padding="valid")
        assert np.getbufsize() == before

    def test_one_element_sum_reads_no_scratch_garbage(self, monkeypatch):
        # A one-output, one-column tile sums into one element.  Scratch it
        # has not written, here 0, inf, 0, -inf, ..., must not reach that
        # sum: it would raise under np.errstate(all="raise"), or leave a
        # warning behind.
        empty = np.empty

        def dirty_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            flat = a.reshape(-1)
            flat[::2], flat[1::4], flat[3::4] = 0, np.inf, -np.inf
            return a

        x = np.ones((4, 3, 3), dtype=np.float32)
        k = np.ones((1, 4, 3, 3), dtype=np.float32)
        monkeypatch.setattr(np, "empty", dirty_empty)
        with np.errstate(all="raise"):
            got = ad.conv2d(t(x), t(k), t([1.0]), padding="valid").data
        assert got.tolist() == [[[37.0]]]

    def test_negative_zero_outputs_keep_the_loop_sign(self):
        # bias -0.0 and products that are all -0.0 sum to -0.0 in the loop;
        # a reduce from its default +0.0 would give 0.0
        x = np.zeros((1, 3, 3), dtype=np.float32)
        k, bias = -np.ones((1, 1, 3, 3), dtype=np.float32), np.array([-0.0], dtype=np.float32)
        got = ad.conv2d(t(x), t(k), t(bias)).data
        assert got.tobytes() == helpers.conv2d_loop(x, k, bias).tobytes()
        assert np.signbit(got).all()

    def test_channel_groups_carry_their_sums(self):
        # 8 outputs over 40x8 "same" give 334 columns, and 256 KiB of scratch
        # then holds the products of two input channels: groups of 2, 2 and 1
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 40, 8)).astype(np.float32)
        k = rng.standard_normal((8, 5, 3, 3)).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        got = ad.conv2d(t(x), t(k), t(b)).data
        assert np.array_equal(got, helpers.conv2d_loop(x, k, b))

    def test_forward_scratch_is_bounded(self):
        # One forward holds the padded input, an accumulator and the output,
        # plus scratch that does not grow with H; forming every tap product
        # at once would take 9 times the output here.
        rng = np.random.default_rng(12)
        x = t(rng.standard_normal((2, 4000, 8)).astype(np.float32))
        k = t(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        padded_bytes = 2 * 4002 * 10 * 4
        ad.conv2d(x, k)
        tracemalloc.start()
        try:
            y = ad.conv2d(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (2, 4000, 8)
        assert peak <= padded_bytes + 3 * y.data.nbytes

    def test_same_padding_shape_formula(self):
        for hh in range(3, 9):
            for ww in range(3, 9):
                x = t(np.zeros((1, hh, ww), dtype=np.float32))
                k = t(np.zeros((2, 1, 3, 3), dtype=np.float32))
                out = ad.conv2d(x, k, padding="same")
                assert out.shape == (2, hh, ww)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.zeros((1, 4, 4))), t(np.zeros((1, 1, 2, 2))))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.zeros((1, 2, 2)), dtype=np.float32),
                      t(np.zeros((1, 1, 7, 7), dtype=np.float32)), padding="valid")

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.zeros((2, 4, 4))), t(np.zeros((1, 3, 3, 3))))


class TestMaxpool2d:
    def test_single_window(self):
        out = ad.maxpool2d(t([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.data.tolist() == [[[4.0]]]

    def test_constant_input_quarters(self):
        x = np.full((1, 6, 6), 2.5, dtype=np.float32)
        out = ad.maxpool2d(t(x))
        assert out.shape == (1, 3, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.5, dtype=np.float32))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        got = ad.maxpool2d(t(x)).data
        want = helpers.maxpool2d_loop(x)
        assert np.array_equal(got, want)

    def test_odd_trailing_rows_dropped(self):
        x = np.arange(1 * 5 * 7, dtype=np.float32).reshape(1, 5, 7)
        out = ad.maxpool2d(t(x))
        assert out.shape == (1, 2, 3)

    def test_tie_routes_gradient_to_first(self):
        x = t(np.zeros((1, 2, 2), dtype=np.float32), grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.maxpool2d(x))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_too_small_input(self):
        with pytest.raises(ShapeError):
            ad.maxpool2d(t(np.zeros((1, 1, 4))))

    @settings(max_examples=200, deadline=None)
    @given(pool=st.sampled_from([2, 3]), c=st.integers(1, 3), data=st.data())
    def test_ties_and_nans_over_arbitrary_inputs(self, pool, c, data):
        """Values come from a small pool holding both zeros and both
        infinities, so most windows tie.  The forward equals the scalar loop
        byte for byte, which keeps the sign of the first of tied zeros; each
        output's gradient lands on the first maximum of its window in
        row-major order; and a NaN anywhere in a window makes it NaN."""
        h, w = data.draw(st.integers(pool, 9)), data.draw(st.integers(pool, 9))
        values = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.5])
        x = np.array(data.draw(st.lists(values, min_size=c * h * w, max_size=c * h * w)),
                     dtype=np.float32).reshape(c, h, w)
        ho, wo = h // pool, w // pool
        weights = np.arange(1, c * ho * wo + 1, dtype=np.float32).reshape(c, ho, wo)
        xt = t(x, grad=True)
        with ad.Tape() as tape:
            y = ad.maxpool2d(xt, pool)
            loss = ad.sum_all(ad.mul(y, t(weights)))
        ad.backward(tape, loss)
        assert y.data.tobytes() == helpers.maxpool2d_loop(x, pool).tobytes()
        want = np.zeros_like(x)
        for ci, oi, oj in np.ndindex(c, ho, wo):
            window = x[ci, oi * pool:(oi + 1) * pool, oj * pool:(oj + 1) * pool].reshape(-1)
            k = next(k for k, v in enumerate(window) if v == window.max())
            want[ci, oi * pool + k // pool, oj * pool + k % pool] = weights[ci, oi, oj]
        assert xt.grad.tobytes() == want.tobytes()

        ci, i, j = (data.draw(st.integers(0, n - 1)) for n in (c, h, w))
        x[ci, i, j] = np.nan
        got, want = ad.maxpool2d(t(x), pool).data, y.data.copy()
        if i < ho * pool and j < wo * pool:
            assert np.isnan(got[ci, i // pool, j // pool])
            want[ci, i // pool, j // pool] = got[ci, i // pool, j // pool]
        assert got.tobytes() == want.tobytes()


class TestStructuralOps:
    def test_slice_concat_roundtrip(self):
        x = t(np.arange(8, dtype=np.float32).reshape(2, 4))
        left = ad.slice_last(x, 0, 2)
        right = ad.slice_last(x, 2, 4)
        back = ad.concat_last(left, right)
        np.testing.assert_array_equal(back.data, x.data)

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.slice_last(t(np.zeros((2, 3))), 1, 5)

    def test_stack_rows(self):
        rows = [t([[1.0, 2.0]]), t([[3.0, 4.0]]), t([[5.0, 6.0]])]
        out = ad.stack_rows(rows)
        assert out.data.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_row_select(self):
        x = t(np.arange(6, dtype=np.float32).reshape(3, 2))
        assert ad.row(x, 2).data.tolist() == [[4.0, 5.0]]
        with pytest.raises(ShapeError):
            ad.row(x, 3)

    def test_channels_to_features(self):
        x = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        out = ad.channels_to_features(t(x))
        assert out.shape == (3, 4)
        # position 0 holds channel 0 then channel 1 slices of width 2
        assert out.data[0].tolist() == [0.0, 1.0, 6.0, 7.0]

    def test_transpose(self):
        x = t(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert ad.transpose(x).shape == (3, 2)

    def test_sum_all_and_scale(self):
        x = t(np.ones((2, 3), dtype=np.float32))
        assert float(ad.sum_all(x).data) == 6.0
        np.testing.assert_array_equal(ad.scale(x, -2.0).data, -2 * np.ones((2, 3)))


class TestBackward:
    def test_square_gradient(self):
        x = t([3.0], grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        ad.backward(tape, loss)
        assert x.grad.tolist() == [6.0]

    def test_disconnected_tensor_keeps_zero_grad(self):
        x = t([2.0], grad=True)
        y = t([4.0], grad=True)
        with ad.Tape() as tape:
            _ = ad.mul(y, y)  # y participates, x does not
            loss = ad.sum_all(ad.mul(y, y))
        ad.backward(tape, loss)
        assert x.grad is None
        assert y.grad is not None

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with ad.Tape() as tape:
            out = ad.mul(x, x)
        with pytest.raises(ContractError):
            ad.backward(tape, out)

    def test_loss_off_tape_rejected(self):
        x = t([1.0], grad=True)
        with ad.Tape() as tape:
            _ = ad.mul(x, x)
        stray = ad.sum_all(ad.mul(x, x))  # built outside the tape
        with pytest.raises(ContractError):
            ad.backward(tape, stray)

    def test_shared_input_accumulates(self):
        x = t([2.0], grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.add(ad.mul(x, x), x))  # x^2 + x
        ad.backward(tape, loss)
        assert x.grad.tolist() == [5.0]

    def test_no_tape_records_nothing(self):
        x = t([1.0], grad=True)
        out = ad.mul(x, x)
        assert out.requires_grad is False

    def test_tape_is_execution_ordered(self):
        x = t([1.0], grad=True)
        with ad.Tape() as tape:
            a = ad.mul(x, x)
            b = ad.add(a, x)
            c = ad.sum_all(b)
        outputs = [op[0] for op in tape.ops]
        assert outputs == [a, b, c]

    def test_broadcast_grad_reduces(self):
        w = t(np.ones((1, 3), dtype=np.float32), grad=True)
        x = t(np.ones((4, 3), dtype=np.float32))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(x, w))
        ad.backward(tape, loss)
        assert w.grad.shape == (1, 3)
        np.testing.assert_array_equal(w.grad, np.full((1, 3), 4.0, dtype=np.float32))


def one_call_of_each_op(a, b, img, k, h, c, wx, wh, bias):
    """Outputs of every op, given (2, 3) tensors a, b, a (1, 4, 4) image,
    (2, 1, 3, 3) kernels, and a (1, 2) LSTM state h, c with weights wx, wh
    and bias for it."""
    return [ad.add(a, b), ad.sub(a, b), ad.mul(a, b), ad.sigmoid(a), ad.tanh(a),
            ad.exp(a), ad.log(ad.exp(a)), ad.softmax(a), ad.matmul(a, ad.transpose(b)),
            ad.attention(a, ad.transpose(b), h, ad.matmul(ad.transpose(h), h), ad.transpose(h)),
            ad.transpose(a), ad.lstm(a, h, c, wx, wh, bias)[0], ad.conv2d(img, k),
            ad.maxpool2d(img), ad.reshape(a, (3, 2)),
            ad.slice_last(a, 0, 2), ad.concat_last(a, b), ad.stack_rows([ad.row(a, 0)]),
            ad.row(a, 1), ad.channels_to_features(img), ad.sum_all(a), ad.scale(a, 2.0)]


def grad_inputs(seed=0):
    rng = np.random.default_rng(seed)
    return [t(rng.uniform(-1, 1, s).astype(np.float32), grad=True)
            for s in ((2, 3), (2, 3), (1, 4, 4), (2, 1, 3, 3), (1, 2), (1, 2), (3, 8), (2, 8), (8,))]


class TestTapeScope:
    def test_no_tape_no_grad(self):
        """With no tape active no op marks its output, even when every
        input requires grad."""
        outs = one_call_of_each_op(*grad_inputs())
        assert [o.requires_grad for o in outs] == [False] * len(outs)

    def test_tape_marks_every_op(self):
        with ad.Tape() as tape:
            outs = one_call_of_each_op(*grad_inputs())
        assert all(o.requires_grad for o in outs)
        recorded = {id(op[0]) for op in tape.ops}
        assert all(id(o) in recorded for o in outs)

    def test_tape_does_not_cross_threads(self):
        """A tape open in one thread records nothing from another thread,
        whose ops see no tape at all unless it opens its own."""
        inside = threading.Event()
        done = threading.Event()
        seen = {}

        def worker():
            inside.wait(timeout=10)
            seen["bare"] = ad.mul(*grad_inputs()[:2])
            with ad.Tape() as own:
                seen["own"] = ad.add(*grad_inputs()[:2])
            seen["own_ops"] = len(own)
            done.set()

        th = threading.Thread(target=worker)
        th.start()
        with ad.Tape() as tape:
            inside.set()
            assert done.wait(timeout=10)
            x, y = grad_inputs()[:2]
            mine = ad.mul(x, y)
        th.join(timeout=10)
        assert not th.is_alive()
        assert seen["bare"].requires_grad is False
        assert seen["own"].requires_grad is True and seen["own_ops"] == 1
        assert [op[0] for op in tape.ops] == [mine]


class TestFusedActivation:
    """An elementwise activation over a whole row, then sliced, gives the
    same bits as slicing first; the LSTM cell relies on it."""

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 30.0, -30.0]),
                                     st.floats(-40, 40), st.floats(-1e-6, 1e-6)),
                           min_size=1, max_size=64),
           cut=st.data())
    def test_row_then_slice_equals_slice_then_row(self, dtype, values, cut):
        width = len(values)
        start = cut.draw(st.integers(0, width - 1))
        stop = cut.draw(st.integers(start + 1, width))
        x = t(np.array([values]), dtype=dtype)
        for fn in (ad.sigmoid, ad.tanh):
            whole = ad.slice_last(fn(x), start, stop).data
            part = fn(ad.slice_last(x, start, stop)).data
            assert whole.dtype == part.dtype == dtype
            assert whole.tobytes() == part.tobytes()


class TestSigmoid:
    """The tanh-form sigmoid over every float, infinities included."""

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_bounded_monotone_and_near_the_exp_form(self, dtype, data):
        """In [0, 1], non-decreasing over sorted inputs, and within 2**-23 of
        1 / (1 + exp(-x)) evaluated in float64."""
        width = np.finfo(dtype).bits
        values = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                      st.floats(allow_nan=False, width=width),
                      st.floats(-40, 40, width=width)),
            min_size=1, max_size=64))
        x = np.sort(np.array(values, dtype=dtype))
        y = ad.sigmoid(t(x, dtype=dtype)).data
        assert y.dtype == dtype
        assert np.all((y >= 0) & (y <= 1))
        assert np.all(np.diff(y) >= 0)
        with np.errstate(over="ignore"):
            want = 1 / (1 + np.exp(-x.astype(np.float64)))
        assert np.max(np.abs(y - want)) <= 2.0 ** -23

    def test_half_at_zero_and_nan_at_nan(self):
        for dtype in (np.float32, np.float64):
            y = ad.sigmoid(t([0.0, -0.0, math.nan], dtype=dtype)).data
            assert y[0] == y[1] == 0.5 and math.isnan(y[2])

    @settings(max_examples=200, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), hidden=st.integers(1, 16),
           data=st.data())
    def test_lstm_gate_affine_is_sigmoid_and_tanh(self, dtype, hidden, data):
        """tanh(z * half) * half + shift, as lstm runs it on a gate row, is
        the sigmoid on the input, forget and output columns and np.tanh on
        the cell columns, bit for bit; -0.0 in a cell column stays -0.0."""
        z = np.array([data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 30.0, -30.0, math.inf, math.nan]),
                      st.floats(width=np.finfo(dtype).bits)),
            min_size=4 * hidden, max_size=4 * hidden))], dtype=dtype)
        half, shift = ad._gate_affine(hidden, np.dtype(dtype))
        got = np.tanh(z * half) * half + shift
        cell = slice(2 * hidden, 3 * hidden)
        want = ad.sigmoid(t(z, dtype=dtype)).data
        want[:, cell] = np.tanh(z[:, cell])
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


def composed_attention(values, we, query, wd, v):
    """The weights ad.attention fuses, from seven ops of their own."""
    scores = ad.matmul(ad.tanh(ad.add(ad.matmul(values, we), ad.matmul(query, wd))), v)
    return ad.softmax(ad.transpose(scores))


class TestAttention:
    """ad.attention is one tape node with the bits of the ops it fuses."""

    @settings(max_examples=200, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), p=st.integers(1, 40),
           dims=st.tuples(*[st.integers(1, 6)] * 3), scale=st.sampled_from([0.1, 1.0, 8.0]),
           needs=st.lists(st.booleans(), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_weights_and_gradients_equal_the_composed_ops(self, dtype, p, dims, scale, needs,
                                                           seed):
        """The weights, and every input's gradient through a loss that reads
        both the weights and their context matmul(attn, values), equal the
        composed graph's bit for bit, whichever inputs require grad."""
        e, d, a = dims
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s) * scale for s in ((p, e), (e, a), (1, d), (d, a), (a, 1))]
        head = t(rng.standard_normal((e, 3)), dtype=dtype)
        runs = []
        for attend in (ad.attention, composed_attention):
            ts = [t(x, grad=need, dtype=dtype) for x, need in zip(arrays, needs)]
            with ad.Tape() as tape:
                attn = attend(*ts)
                context = ad.matmul(attn, ts[0])
                loss = ad.add(ad.sum_all(ad.tanh(ad.matmul(context, head))),
                              ad.sum_all(ad.mul(attn, attn)))
            ad.backward(tape, loss)
            runs.append((attn.data, [x.grad for x in ts]))
        (fused, fused_grads), (composed, composed_grads) = runs
        assert fused.dtype == dtype and fused.tobytes() == composed.tobytes()
        for need, got, want in zip(needs, fused_grads, composed_grads):
            assert (got is None) == (want is None) == (not need)
            assert got is None or got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 6), dims=st.tuples(*[st.integers(1, 4)] * 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gradients_added_into_signed_zeros_equal_the_composed_ops(self, p, dims, seed):
        """With inputs and the weights' gradient full of zeros of either
        sign, and every input's gradient starting at +0.0 or -0.0, the rule
        still adds the composed graph's bits: its one-term products are
        matmuls, as theirs are, where a broadcast multiply would keep a
        -0.0 that the matmul turns to +0.0."""
        e, d, a = dims
        rng = np.random.default_rng(seed)
        signed = lambda shape: rng.choice([0.0, -0.0, 0.5, -2.0], size=shape)  # noqa: E731
        arrays = [signed(s) for s in ((p, e), (e, a), (1, d), (d, a), (a, 1))]
        starts = [rng.choice([0.0, -0.0], size=x.shape).astype(np.float32) for x in arrays]
        head = signed((1, p))
        grads = []
        for attend in (ad.attention, composed_attention):
            ts = [t(x, grad=True) for x in arrays]
            for x, start in zip(ts, starts):
                x.grad = start.copy()
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.mul(attend(*ts), t(head)))
            ad.backward(tape, loss)
            grads.append([x.grad.tobytes() for x in ts])
        assert grads[0] == grads[1]

    def test_rejects_mismatched_shapes_and_mixed_dtypes(self):
        ts = [t(np.ones(s)) for s in ((4, 3), (3, 5), (1, 2), (2, 5), (5, 1))]
        for i, bad in ((0, (4, 2)), (1, (3, 4)), (2, (2, 2)), (3, (3, 5)), (4, (5,))):
            with pytest.raises(ShapeError):
                ad.attention(*ts[:i], t(np.ones(bad)), *ts[i + 1:])
        with pytest.raises(ShapeError):
            ad.attention(t(np.ones((0, 3))), *ts[1:])
        with pytest.raises(ContractError, match="attention needs one dtype"):
            ad.attention(*ts[:4], t(np.ones((5, 1)), dtype=np.float64))


# x (T=3, F=2), h0 and c0 (1, H=3), wx, wh, b
LSTM_SHAPES = [(3, 2), (1, 3), (1, 3), (2, 12), (3, 12), (12,)]


def lstm_loss(ts, reverse):
    """A loss reading the hidden rows and the final c."""
    hs, _, c = ad.lstm(*ts, reverse=reverse)
    return ad.add(ad.sum_all(ad.tanh(hs)), ad.sum_all(ad.mul(c, c)))


OP_CASES = [
    ("matmul", lambda ts: ad.sum_all(ad.tanh(ad.matmul(ts[0], ts[1]))),
     [(3, 4), (4, 2)]),
    ("lstm", lambda ts: lstm_loss(ts, reverse=False), LSTM_SHAPES),
    ("lstm-reverse", lambda ts: lstm_loss(ts, reverse=True), LSTM_SHAPES),
    ("add", lambda ts: ad.sum_all(ad.tanh(ad.add(ts[0], ts[1]))), [(3, 4), (3, 4)]),
    ("add-broadcast", lambda ts: ad.sum_all(ad.tanh(ad.add(ts[0], ts[1]))), [(3, 4), (4,)]),
    ("sub", lambda ts: ad.sum_all(ad.tanh(ad.sub(ts[0], ts[1]))), [(2, 5), (2, 5)]),
    ("mul", lambda ts: ad.sum_all(ad.tanh(ad.mul(ts[0], ts[1]))), [(2, 5), (2, 5)]),
    ("sigmoid", lambda ts: ad.sum_all(ad.sigmoid(ts[0])), [(3, 3)]),
    ("tanh", lambda ts: ad.sum_all(ad.tanh(ts[0])), [(3, 3)]),
    ("exp", lambda ts: ad.sum_all(ad.exp(ts[0])), [(3, 3)]),
    ("log", lambda ts: ad.sum_all(ad.log(ad.exp(ts[0]))), [(3, 3)]),
    ("softmax", lambda ts: ad.sum_all(ad.mul(ts[1], ad.softmax(ts[0]))), [(2, 6), (2, 6)]),
    ("attention", lambda ts: ad.sum_all(ad.tanh(ad.matmul(ad.attention(*ts), ts[0]))),
     [(4, 3), (3, 5), (1, 2), (2, 5), (5, 1)]),
    ("conv-same", lambda ts: ad.sum_all(ad.tanh(ad.conv2d(ts[0], ts[1], ts[2]))),
     [(2, 5, 4), (3, 2, 3, 3), (3,)]),
    ("conv-valid", lambda ts: ad.sum_all(ad.tanh(ad.conv2d(ts[0], ts[1], padding="valid"))),
     [(1, 6, 6), (2, 1, 3, 3)]),
    ("maxpool", lambda ts: ad.sum_all(ad.maxpool2d(ts[0])), [(2, 4, 4)]),
    ("slice", lambda ts: ad.sum_all(ad.tanh(ad.slice_last(ts[0], 1, 3))), [(3, 5)]),
    ("concat", lambda ts: ad.sum_all(ad.tanh(ad.concat_last(ts[0], ts[1]))), [(2, 3), (2, 2)]),
    ("stack", lambda ts: ad.sum_all(ad.tanh(ad.stack_rows(list(ts)))), [(1, 4), (1, 4)]),
    ("row", lambda ts: ad.sum_all(ad.tanh(ad.row(ts[0], 1))), [(3, 4)]),
    ("fold", lambda ts: ad.sum_all(ad.tanh(ad.channels_to_features(ts[0]))), [(2, 3, 4)]),
    ("transpose", lambda ts: ad.sum_all(ad.tanh(ad.matmul(ts[1], ad.transpose(ts[0])))),
     [(3, 4), (1, 4)]),
    ("reshape", lambda ts: ad.sum_all(ad.tanh(ad.reshape(ts[0], (2, 6)))), [(3, 4)]),
    ("scale", lambda ts: ad.sum_all(ad.scale(ad.tanh(ts[0]), 0.7)), [(3, 3)]),
]


def public_ops() -> set:
    """Every public function of the autodiff module but backward."""
    return {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and not name.startswith("_") and name != "backward"}


def ops_called(run, monkeypatch) -> set:
    """Names of the public ops that run() calls through the module."""
    called = set()
    for name in public_ops():
        def spy(*args, _name=name, _fn=getattr(ad, name), **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ad, name, spy)
    run()
    monkeypatch.undo()
    return called


class TestEveryOpCovered:
    """A new op cannot land without a tape-scope case and a
    finite-difference case."""

    def test_one_call_of_each_op_calls_every_op(self, monkeypatch):
        called = ops_called(lambda: one_call_of_each_op(*grad_inputs()), monkeypatch)
        assert public_ops() - called == set()

    def test_op_cases_call_every_op(self, monkeypatch):
        def run():
            for _, build, shapes in OP_CASES:
                build([t(np.full(s, 0.5), grad=True) for s in shapes])

        assert public_ops() - ops_called(run, monkeypatch) == set()


class TestFiniteDifference:
    """Every differentiable op passes a central-difference gradient check."""

    @pytest.mark.parametrize("name,build,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
    def test_op_gradient(self, name, build, shapes):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        arrays = [rng.uniform(-0.9, 0.9, size=s).astype(np.float32) for s in shapes]
        if name == "maxpool":
            # keep window maxima unique so the subgradient is well defined
            arrays[0] = (np.arange(arrays[0].size, dtype=np.float32)
                         .reshape(arrays[0].shape) * 0.01 + arrays[0] * 1e-3)
        bad = helpers.fd_gradcheck(build, arrays)
        assert bad is None, "gradient mismatch at %r: analytic %g numeric %g" % bad


class TestDeterminism:
    def test_forward_repeat_bit_identical(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)

        def run():
            h = ad.conv2d(t(x), t(k), padding="same")
            h = ad.tanh(h)
            h = ad.maxpool2d(h)
            return ad.softmax(ad.channels_to_features(h)).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_backward_repeat_bit_identical(self):
        rng = np.random.default_rng(43)
        xa = rng.standard_normal((4, 4)).astype(np.float32)

        def run():
            x = t(xa, grad=True)
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.sigmoid(ad.matmul(x, x)))
            ad.backward(tape, loss)
            return x.grad.copy()

        assert np.array_equal(run(), run())
