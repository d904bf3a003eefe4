"""Reverse-mode automatic differentiation over numpy arrays.

Tensors carry float32 data by default.  Every op computes its forward on
the inputs' numpy data and hands the result to _op(y, inputs, rule), which
wraps it as a Tensor with the dtype of inputs[0].  When a Tape is active and
some input requires grad, _op marks the output as requiring grad and appends
(output, rule) to the innermost tape, so the tape is in execution order.
rule(g) closes over the op's inputs and forward intermediates and adds the
output's gradient g into each input that requires grad.  backward() replays
the tape in reverse, calling rule(out.grad) for every output the loss
reaches.  With no tape active an op costs its numpy forward, its rule
closure and one attribute read, so inference pays nothing for recording.
One op spans many steps: lstm runs a whole recurrence on plain arrays and
records it as one node whose rule is backpropagation through time.
The conv2d forward adds its products into each output one at a time, in
the order of a scalar loop, so its outputs are bit-identical to that loop's;
the streaming equivalence checks rely on it.  numpy's reductions would sum
in another order, pairwise where the reduced axis is contiguous.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, ShapeError


class _State(threading.local):
    """Per-thread stack of active tapes; the innermost records."""

    def __init__(self):
        self.tapes = []


_state = _State()


class Tensor:
    """A shaped float buffer with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None  # same-shape buffer, allocated lazily

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0

    def __repr__(self) -> str:
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)


class Tape:
    """Ordered record of operations, replayed in reverse by backward().

    A tape is a single-owner object: one thread builds it, runs backward
    once, and discards it.  Entering the tape as a context manager makes it
    the active recording target for ops executed in the block.
    """

    def __init__(self):
        self.ops = []  # list of (output, rule) in execution order

    def __enter__(self) -> "Tape":
        _state.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _state.tapes
        if not stack or stack[-1] is not self:
            raise ContractError("tape exited out of order")
        stack.pop()

    def __len__(self) -> int:
        return len(self.ops)


def _op(y, inputs: tuple, rule) -> Tensor:
    """The output Tensor of an op with result y; recorded with its rule when
    a tape is active and some input requires grad."""
    out = Tensor(y, dtype=inputs[0].data.dtype)
    stack = _state.tapes
    if stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        stack[-1].ops.append((out, rule))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every tensor on the tape.

    loss must be a scalar produced by an operation recorded on this tape.
    """
    if loss.data.size != 1:
        raise ContractError("backward needs a scalar loss, got shape %r" % (loss.shape,))
    if tape.ops and not any(op_out is loss for op_out, _ in tape.ops):
        raise ContractError("loss tensor was not produced on this tape")
    loss.ensure_grad()
    loss.grad[...] = 1
    for out, rule in reversed(tape.ops):
        if out.grad is None:
            continue  # not on any path from the loss
        rule(out.grad)


# ---------------------------------------------------------------------------
# gradient accumulation; broadcasting follows numpy suffix alignment
# (leading axes must line up exactly or be missing/size 1)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.ensure_grad()
        t.grad += _unbroadcast(g, t.data.shape)


def _accum_at(t: Tensor, index, g: np.ndarray) -> None:
    """Add g into t.grad[index] in place."""
    if t.requires_grad:
        t.ensure_grad()[index] += g


# ---------------------------------------------------------------------------
# binary elementwise ops


def _binary(a, b, fwd, grads):
    """fwd(x, y) on the data; grads(g, a, b) gives the operands' gradients."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError("operands must be Tensors")
    try:
        y = fwd(a.data, b.data)
    except ValueError:  # numpy's own broadcast check
        raise ShapeError("cannot broadcast %r with %r" % (a.data.shape, b.data.shape)) from None

    def rule(g):
        ga, gb = grads(g, a, b)
        _accum(a, ga)
        _accum(b, gb)

    return _op(y, (a, b), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: (g * y.data, g * x.data))


# ---------------------------------------------------------------------------
# unary elementwise ops


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # bounded by 1, no overflow on either branch
    return np.where(x >= 0, 1, e) / (1 + e)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return _op(y, (a,), lambda g: _accum(a, g * y * (1 - y)))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _op(y, (a,), lambda g: _accum(a, g * (1 - y * y)))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _op(y, (a,), lambda g: _accum(a, g * y))


def log(a: Tensor) -> Tensor:
    return _op(np.log(a.data), (a,), lambda g: _accum(a, g / a.data))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, (g - dot) * y)

    return _op(y, (a,), rule)


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul needs 2-d operands, got %r and %r" % (a.shape, b.shape))
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul mismatch: %r by %r" % (a.shape, b.shape))

    def rule(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _op(a.data @ b.data, (a, b), rule)


# ---------------------------------------------------------------------------
# recurrence


def lstm(x: Tensor, h0: Tensor, c0: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
         reverse: bool = False):
    """An LSTM over the (T, F) rows of x from the (1, H) state (h0, c0).

    Gate layout along the 4H axis is input, forget, cell, output.  Steps read
    the rows in order, or last to first when reverse, and each keeps only its
    h and c rows.  Returns the (T, H) hidden rows, row t from the step that
    read row t, and the final h and c; the final h shares its row's gradient.
    """
    n = wh.data.shape[0]
    if (x.data.ndim != 2 or len(x.data) < 1 or wx.shape != (x.data.shape[1], 4 * n)
            or wh.shape != (n, 4 * n) or b.shape != (4 * n,) or {h0.shape, c0.shape} != {(1, n)}):
        raise ShapeError("lstm cannot run x %r from state %r, %r with weights %r, %r, %r"
                         % (x.shape, h0.shape, c0.shape, wx.shape, wh.shape, b.shape))
    xd, wxd, whd, bd = x.data, wx.data, wh.data, b.data
    t_len = len(xd)
    hs, cs = np.empty((t_len, n), dtype=xd.dtype), np.empty((t_len, n), dtype=xd.dtype)
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    h, c = h0.data, c0.data
    for t in steps:
        gates = (xd[t:t + 1] @ wxd + h @ whd) + bd
        sig = _sigmoid(gates)
        c = np.add(sig[:, n:2 * n] * c, sig[:, :n] * np.tanh(gates[:, 2 * n:3 * n]),
                   out=cs[t:t + 1])
        h = np.multiply(sig[:, 3 * n:], np.tanh(c), out=hs[t:t + 1])

    def rule(g):
        """Backpropagation through time: the gates are recomputed in one
        product, and only the dh and dc recurrence runs step by step."""
        if reverse:  # each step's starting state, on the row it read
            hp, cp = np.concatenate([hs[1:], h0.data]), np.concatenate([cs[1:], c0.data])
        else:
            hp, cp = np.concatenate([h0.data, hs[:-1]]), np.concatenate([c0.data, cs[:-1]])
        gates = (xd @ wxd + hp @ whd) + bd
        sig = _sigmoid(gates)
        i, f, o = sig[:, :n], sig[:, n:2 * n], sig[:, 3 * n:]
        cell, tc = np.tanh(gates[:, 2 * n:3 * n]), np.tanh(cs)
        dc_dh = o * (1 - tc * tc)
        # input, forget and cell gate gradients are dc times by_dc, the output one dh times by_dh
        by_dc = np.stack([cell * i * (1 - i), cp * f * (1 - f), i * (1 - cell * cell)], axis=1)
        by_dh = tc * o * (1 - o)
        dgates = np.empty_like(gates)
        dh_next = np.zeros_like(h0.data)
        dc_next = c_last.grad if c_last.grad is not None else np.zeros_like(c0.data)
        for t in reversed(steps):
            dh = g[t:t + 1] + dh_next
            dc = dc_next + dh * dc_dh[t]
            dgates[t, :3 * n] = (dc * by_dc[t]).reshape(-1)
            dgates[t, 3 * n:] = dh[0] * by_dh[t]
            dc_next = dc * f[t]
            dh_next = dgates[t:t + 1] @ whd.T
        _accum(x, dgates @ wxd.T)
        _accum(h0, dh_next)
        _accum(c0, dc_next)
        _accum(wx, xd.T @ dgates)
        _accum(wh, hp.T @ dgates)
        _accum(b, dgates.sum(axis=0))

    out = _op(hs, (x, h0, c0, wx, wh, b), rule)
    last = slice(0, 1) if reverse else slice(t_len - 1, t_len)
    h_last, c_last = (Tensor(r[last], out.requires_grad, r.dtype) for r in (hs, cs))
    if out.requires_grad:  # allocated now, so the rule runs even if only the final c is reached
        out.grad = np.zeros_like(hs)
        h_last.grad = out.grad[last]
    return out, h_last, c_last


# ---------------------------------------------------------------------------
# convolution and pooling


_CONV_SCRATCH_BYTES = 1 << 18  # cap on one conv2d forward's tap products and their sums


def _sum_taps(taps, weights, start, cols) -> None:
    """cols[co, q] = start[co] + taps[0, 0, 0, 0, q] * weights[0, 0, 0, co, 0] + ...

    Works through the columns in tiles that fit the products of every tap
    and their sums into _CONV_SCRATCH_BYTES.  In each tile, one multiply per
    input channel forms all of its tap products, and they are added in
    place one at a time in (ci, i, j) row-major order.
    """
    c_in, kh, kw, c_out, _ = weights.shape
    n = cols.shape[1]
    tile = min(n, max(1, _CONV_SCRATCH_BYTES // ((kh * kw + 1) * c_out * cols.itemsize)))
    prods = np.empty(kh * kw * c_out * tile, dtype=cols.dtype)
    sums = np.empty(c_out * tile, dtype=cols.dtype)
    for q0 in range(0, n, tile):
        m = min(tile, n - q0)
        prod = prods[:kh * kw * c_out * m].reshape(kh, kw, c_out, m)
        out = sums[:c_out * m].reshape(c_out, m)
        out[...] = start
        for ci in range(c_in):
            np.multiply(taps[ci, ..., q0:q0 + m], weights[ci], out=prod)
            for i in range(kh):
                for j in range(kw):
                    out += prod[i, j]
        cols[:, q0:q0 + m] = out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: str = "same") -> Tensor:
    """2-d convolution over a (C_in, H, W) input, kernels (C_out, C_in, kh, kw).

    Odd kernel sizes only.  "same" pads with zeros so that stride 1 preserves
    H and W; "valid" does not pad.  The forward works in a layout where the
    time axis H is contiguous.  Each output starts at its bias and adds its
    products one at a time in (c_in, kh, kw) row-major order, so it is
    bit-identical to a scalar loop.  It adds them in place, one tap at a
    time, because np.add.reduce and np.sum may sum pairwise, and
    np.add.accumulate keeps the order but is slower.  The backward sums in
    another order: reproducible, but not bit-identical to a loop.
    """
    if x.data.ndim != 3:
        raise ShapeError("conv2d input must be (C_in, H, W), got %r" % (x.shape,))
    if kernels.data.ndim != 4:
        raise ShapeError("conv2d kernels must be (C_out, C_in, kh, kw), got %r" % (kernels.shape,))
    c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError("kernel expects %d input channels, input has %d" % (kc, c_in))
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("kernel sizes must be odd, got (%d, %d)" % (kh, kw))
    if padding == "same":
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    elif padding == "valid":
        ph = pw = 0
    else:
        raise ValueError("padding must be 'same' or 'valid', got %r" % (padding,))
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (w + 2 * pw - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError("conv2d output would be empty for input %r, kernel (%d, %d), padding %r"
                         % (x.shape, kh, kw, padding))
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError("bias must have shape (%d,), got %r" % (c_out, bias.shape))

    dt, s = x.data.dtype, x.data.itemsize
    # Time-contiguous layout: xp[ci, col, t] is the padded input, and output
    # (co, oi, oj) is column q = oj * hp + oi of row co of the accumulator.
    # The hp - ho columns after each output row but the last are computed and
    # dropped.
    hp = h + 2 * ph
    xp = np.zeros((c_in, w + 2 * pw, hp), dtype=dt)
    xp[:, pw:pw + w, ph:ph + h] = x.data.transpose(0, 2, 1)
    n = (wo - 1) * hp + ho
    # taps[ci, i, j, 0, q] lies stride * q elements after xp[ci, j, i], which
    # is xp[ci, oj * stride + j, oi * stride + i] for q = oj * hp + oi.  The
    # ndarray constructor checks that the view stays inside xp; it costs a
    # seventh of as_strided, which also left a 0.9 MB block allocated for
    # good in a long streaming run.
    taps = np.ndarray((c_in, kh, kw, 1, n), dt, xp, 0, (xp.strides[0], s, hp * s, 0, stride * s))
    weights = kernels.data.transpose(1, 2, 3, 0)[..., None]  # (C_in, kh, kw, C_out, 1)
    acc = np.empty((c_out, wo, hp), dtype=dt)
    start = 0 if bias is None else bias.data[:, None]
    _sum_taps(taps, weights, start, acc.reshape(c_out, wo * hp)[:, :n])
    y = np.ascontiguousarray(acc[:, :, :ho].transpose(0, 2, 1))
    kd, xp = kernels.data, xp.transpose(0, 2, 1)  # (C_in, H + 2ph, W + 2pw) for the backward

    def rule(g):
        if x.requires_grad:
            dxp = np.zeros(xp.shape, dtype=dt)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += np.tensordot(kd[:, :, i, j], g, axes=(0, 0))
            _accum(x, dxp[:, ph:ph + h, pw:pw + w])
        if kernels.requires_grad:
            # windows[ci, oi, oj, i, j] = xp[ci, oi * stride + i, oj * stride + j]
            windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
            _accum(kernels, np.tensordot(g, windows, axes=((1, 2), (1, 2))))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(1, 2)))

    return _op(y, (x, kernels) if bias is None else (x, kernels, bias), rule)


def maxpool2d(x: Tensor, pool: int = 2, stride: int = 2) -> Tensor:
    """Non-overlapping max pooling over (C, H, W); ties go to the first
    element in row-major window order.  Trailing rows and columns that do not
    fill a window are dropped."""
    if x.data.ndim != 3:
        raise ShapeError("maxpool2d input must be (C, H, W), got %r" % (x.shape,))
    if pool != stride:
        raise ValueError("only pool == stride is supported")
    c, h, w = x.shape
    ho, wo = h // pool, w // pool
    if ho < 1 or wo < 1:
        raise ShapeError("maxpool2d input %r smaller than window %d" % (x.shape, pool))
    xc = x.data[:, :ho * pool, :wo * pool]
    win = (xc.reshape(c, ho, pool, wo, pool)
             .transpose(0, 1, 3, 2, 4)
             .reshape(c, ho, wo, pool * pool))
    idx = win.argmax(axis=-1)  # argmax returns the first maximum
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def rule(g):
        if not x.requires_grad:
            return
        dwin = np.zeros((c, ho, wo, pool * pool), dtype=g.dtype)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dxc = (dwin.reshape(c, ho, wo, pool, pool)
                   .transpose(0, 1, 3, 2, 4)
                   .reshape(c, ho * pool, wo * pool))
        dx = np.zeros((c, h, w), dtype=g.dtype)
        dx[:, :ho * pool, :wo * pool] = dxc
        _accum(x, dx)

    return _op(y, (x,), rule)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return _op(a.data.reshape(shape).copy(), (a,), lambda g: _accum(a, g.reshape(a.data.shape)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose needs a 2-d tensor, got %r" % (a.shape,))
    return _op(a.data.T.copy(), (a,), lambda g: _accum(a, g.T))


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start:stop] of the last axis."""
    n = a.data.shape[-1]
    if not (0 <= start < stop <= n):
        raise ShapeError("slice [%d:%d] out of range for axis of size %d" % (start, stop, n))
    index = (..., slice(start, stop))
    return _op(a.data[index].copy(), (a,), lambda g: _accum_at(a, index, g))


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError("cannot concatenate %r with %r" % (a.shape, b.shape))
    na = a.data.shape[-1]

    def rule(g):
        _accum(a, g[..., :na])
        _accum(b, g[..., na:])

    return _op(np.concatenate([a.data, b.data], axis=-1), (a, b), rule)


def stack_rows(rows: list) -> Tensor:
    """Stack (1, W) row tensors into an (N, W) tensor."""
    if not rows:
        raise ShapeError("cannot stack zero rows")
    for r in rows:
        if r.data.ndim != 2 or r.data.shape[0] != 1:
            raise ShapeError("stack_rows expects (1, W) rows, got %r" % (r.shape,))
    rows = tuple(rows)

    def rule(g):
        for i, t in enumerate(rows):
            _accum(t, g[i:i + 1])

    return _op(np.concatenate([r.data for r in rows], axis=0), rows, rule)


def row(a: Tensor, index: int) -> Tensor:
    """Extract row `index` of a 2-d tensor as a (1, W) tensor."""
    if a.data.ndim != 2:
        raise ShapeError("row needs a 2-d tensor, got %r" % (a.shape,))
    if not (0 <= index < a.data.shape[0]):
        raise ShapeError("row %d out of range for %r" % (index, a.shape))
    rows = slice(index, index + 1)
    return _op(a.data[rows].copy(), (a,), lambda g: _accum_at(a, rows, g))


def channels_to_features(a: Tensor) -> Tensor:
    """Fold (C, H, W) to (H, C * W), keeping H as the leading axis."""
    if a.data.ndim != 3:
        raise ShapeError("channels_to_features needs (C, H, W), got %r" % (a.shape,))
    c, h, w = a.shape
    return _op(a.data.transpose(1, 0, 2).reshape(h, c * w).copy(), (a,),
               lambda g: _accum(a, g.reshape(h, c, w).transpose(1, 0, 2)))


def sum_all(a: Tensor) -> Tensor:
    """Sum every element to a scalar."""
    return _op(np.sum(a.data, dtype=a.data.dtype), (a,), lambda g: _accum_at(a, ..., g))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    return _op(a.data * c, (a,), lambda g: _accum(a, g * c))
