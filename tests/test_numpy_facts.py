"""The numpy and BLAS behaviour that the bit-identity contracts rest on.

Each test states one fact and names the contract that needs it, so that
after a numpy or BLAS upgrade a broken assumption fails here under its own
name, before any digest in tests/golden.json does.  Checked on numpy 2.4.6
with OpenBLAS 0.3.31.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from streamst import autodiff as ad


def sequential(rows):
    """rows[0] + rows[1] + ..., one elementwise add at a time."""
    acc = rows[0].copy()
    for r in rows[1:]:
        acc = acc + r
    return acc


@pytest.mark.parametrize("width", range(2, 33))
def test_outer_axis_reduce_adds_whole_rows_in_order(width):
    """np.add.reduce over the outer axis of (n, width) rows adds them one row
    at a time.  Contract: conv2d's outputs equal a scalar loop's
    (_sum_taps), and training's decoder node adds each parameter's per-step
    terms with the composed ops' bits (_add_rows); both sum through
    _ordered_sum."""
    rng = np.random.default_rng(width)
    for n in (3, 9, 23, 40):
        rows = (rng.standard_normal((n, width)) * 10.0 ** rng.integers(-4, 9, (n, 1))).astype(
            np.float32)
        assert np.add.reduce(rows, axis=0).tobytes() == sequential(rows).tobytes()


def test_reduce_into_one_element_sums_pairwise():
    """Into one element the same reduce sums pairwise: rows 1e8, 1, -1e8 and
    twenty 1s give 15, where adding them in order gives 20.  Contract:
    _ordered_sum accumulates there instead."""
    rows = np.array([1e8, 1, -1e8] + [1] * 20, dtype=np.float32).reshape(-1, 1)
    assert sequential(rows)[0] == 20
    assert np.add.reduce(rows, axis=0)[0] == 15
    out = np.empty(1, dtype=np.float32)
    ad._ordered_sum(rows, out)
    assert out[0] == 20


def test_reduce_starts_from_positive_zero():
    """The reduce adds its rows to +0.0, so rows of -0.0 sum to 0.0, and
    from an initial -0.0 they stay -0.0, as adding them in order gives.
    Contract: _ordered_sum passes that initial, so a conv2d output whose
    bias and products are all -0.0 keeps the scalar loop's sign."""
    rows = np.full((3, 2), -0.0, dtype=np.float32)
    assert np.signbit(sequential(rows)).all()
    assert not np.signbit(np.add.reduce(rows, axis=0)).any()
    assert np.signbit(np.add.reduce(rows, axis=0, initial=-0.0)).all()


@pytest.mark.parametrize("features", [1, 8, 55, 56, 64, 100, 128])
def test_stacked_row_products_have_each_rows_bits(features):
    """A stacked (T, 1, F) @ (F, 4H) matmul gives every row the bits of its
    own (1, F) product, for F of 56 and more too, where a (T, F) sgemm
    would not.  Contract: encoding in chunks with carried state is bit for
    bit encoding in one pass (lstm's input products, criterion 1)."""
    rng = np.random.default_rng(features)
    x = rng.standard_normal((70, features)).astype(np.float32)
    w = rng.standard_normal((features, 4 * 32)).astype(np.float32)
    stacked = np.matmul(x[:, None, :], w)
    for t in range(len(x)):
        assert stacked[t].tobytes() == (x[t:t + 1] @ w).tobytes()


@pytest.mark.parametrize("hidden", [1, 5, 8, 32, 64])
def test_dot_on_a_row_has_matmuls_bits(hidden):
    """np.dot of a (1, H) row by an (H, 4H) matrix into an out buffer gives
    the bits of the @ product.  Contract: lstm's step uses np.dot, and its
    rule and training's decoder node recompute the gates with matmul."""
    rng = np.random.default_rng(hidden)
    h = rng.standard_normal((1, hidden)).astype(np.float32)
    w = rng.standard_normal((hidden, 4 * hidden)).astype(np.float32)
    out = np.empty((1, 4 * hidden), dtype=np.float32)
    np.dot(h, w, out)
    assert out.tobytes() == (h @ w).tobytes()
    assert out.tobytes() == np.matmul(h[None], w)[0].tobytes()


def test_multiply_under_a_changed_ufunc_buffer_gives_the_same_values():
    """A broadcast multiply gives the same values under any ufunc buffer
    size.  Contract: conv2d's tap multiply may run under a buffer as wide
    as a row for speed (_sum_taps) without changing its outputs."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3, 3, 1, 1000)).astype(np.float32)
    b = rng.standard_normal((4, 3, 3, 8, 1)).astype(np.float32)
    want = np.multiply(a, b)
    size = np.getbufsize()
    try:
        for bufsize in (16, 992, 4096):
            np.setbufsize(bufsize)
            got = np.empty_like(want)
            np.multiply(a, b, out=got)
            assert got.tobytes() == want.tobytes()
    finally:
        np.setbufsize(size)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 40), width=st.integers(1, 32),
       split=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]))
def test_ordered_sum_is_a_loop_of_adds(data, n_rows, width, split, dtype):
    """_ordered_sum has the bits of adding its rows in order, for every
    output width and shape."""
    shape = (2, width // 2) if split and width % 2 == 0 else (width,)
    rows = data.draw(arrays(dtype, (n_rows,) + shape,
                            elements=st.floats(-2.0 ** 100, 2.0 ** 100, width=32)))
    out = np.empty(shape, dtype=dtype)
    ad._ordered_sum(rows, out)
    assert out.tobytes() == sequential(rows).tobytes()
