"""Reverse-mode automatic differentiation over numpy arrays.

Tensors carry float32 data by default.  Operations executed while a Tape is
active are recorded in execution order; backward() replays the tape in
reverse and accumulates gradients into every tensor with requires_grad set.
With no tape active an op costs its numpy forward plus one attribute read,
so inference pays nothing for recording.
Convolution and pooling forwards are written so that their floating-point
accumulation order matches a scalar loop exactly, which downstream streaming
equivalence checks rely on.
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
        self.ops = []  # list of (output, inputs, rule) in execution order

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


def _record(out: Tensor, inputs: tuple, rule) -> None:
    stack = _state.tapes
    if not stack or not any(t.requires_grad for t in inputs):
        return
    out.requires_grad = True
    stack[-1].ops.append((out, inputs, rule))


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every tensor on the tape.

    loss must be a scalar produced by an operation recorded on this tape.
    """
    if loss.data.size != 1:
        raise ContractError("backward needs a scalar loss, got shape %r" % (loss.shape,))
    if tape.ops and not any(op_out is loss for op_out, _, _ in tape.ops):
        raise ContractError("loss tensor was not produced on this tape")
    loss.ensure_grad()
    loss.grad[...] = 1
    for out, inputs, rule in reversed(tape.ops):
        if out.grad is None:
            continue  # not on any path from the loss
        rule(out.grad, inputs)


# ---------------------------------------------------------------------------
# broadcasting helpers (numpy suffix alignment; leading axes must line up
# exactly or be missing/size 1)


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
    out = Tensor(y, dtype=a.data.dtype)

    def rule(g, inputs):
        ga, gb = grads(g, *inputs)
        _accum(inputs[0], ga)
        _accum(inputs[1], gb)

    _record(out, (a, b), rule)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: (g * y.data, g * x.data))


# ---------------------------------------------------------------------------
# unary elementwise ops


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))  # bounded by 1, no overflow on either branch
    y = np.where(x >= 0, 1, e) / (1 + e)
    out = Tensor(y, dtype=x.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g * y * (1 - y))

    _record(out, (a,), rule)
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g * (1 - y * y))

    _record(out, (a,), rule)
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y, dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g * y)

    _record(out, (a,), rule)
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g / inputs[0].data)

    _record(out, (a,), rule)
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, dtype=x.dtype)

    def rule(g, inputs):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(inputs[0], (g - dot) * y)

    _record(out, (a,), rule)
    return out


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul needs 2-d operands, got %r and %r" % (a.shape, b.shape))
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul mismatch: %r by %r" % (a.shape, b.shape))
    out = Tensor(a.data @ b.data, dtype=a.data.dtype)

    def rule(g, inputs):
        ta, tb = inputs
        _accum(ta, g @ tb.data.T)
        _accum(tb, ta.data.T @ g)

    _record(out, (a, b), rule)
    return out


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: str = "same") -> Tensor:
    """2-d convolution over a (C_in, H, W) input, kernels (C_out, C_in, kh, kw).

    Odd kernel sizes only.  "same" pads with zeros so that stride 1 preserves
    H and W; "valid" does not pad.  The forward adds one shifted input slice,
    times each output channel's weight, per (c_in, kh, kw) tap in row-major
    order, so every output is bit-identical to a scalar loop.  The backward
    sums in another order: reproducible, but not bit-identical to a loop.
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

    dt = x.data.dtype
    xp = np.zeros((c_in, h + 2 * ph, w + 2 * pw), dtype=dt)
    xp[:, ph:ph + h, pw:pw + w] = x.data
    kd = kernels.data
    acc = np.full((c_out, ho, wo), 0 if bias is None else bias.data[:, None, None], dtype=dt)
    for ci in range(c_in):
        for i in range(kh):
            for j in range(kw):
                acc = acc + xp[ci, i:i + ho * stride:stride, j:j + wo * stride:stride] * kd[:, ci, i, j, None, None]
    out = Tensor(acc, dtype=dt)

    def rule(g, inputs):
        tx = inputs[0]
        tk = inputs[1]
        tb = inputs[2] if len(inputs) == 3 else None
        if tx.requires_grad:
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += np.tensordot(kd[:, :, i, j], g, axes=(0, 0))
            _accum(tx, dxp[:, ph:ph + h, pw:pw + w])
        if tk.requires_grad:
            # windows[ci, oi, oj, i, j] = xp[ci, oi * stride + i, oj * stride + j]
            windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
            _accum(tk, np.tensordot(g, windows, axes=((1, 2), (1, 2))))
        if tb is not None and tb.requires_grad:
            _accum(tb, g.sum(axis=(1, 2)))

    inputs = (x, kernels) if bias is None else (x, kernels, bias)
    _record(out, inputs, rule)
    return out


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
    out = Tensor(y, dtype=x.data.dtype)

    def rule(g, inputs):
        tx = inputs[0]
        if not tx.requires_grad:
            return
        dwin = np.zeros((c, ho, wo, pool * pool), dtype=g.dtype)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dxc = (dwin.reshape(c, ho, wo, pool, pool)
                   .transpose(0, 1, 3, 2, 4)
                   .reshape(c, ho * pool, wo * pool))
        dx = np.zeros((c, h, w), dtype=g.dtype)
        dx[:, :ho * pool, :wo * pool] = dxc
        _accum(tx, dx)

    _record(out, (x,), rule)
    return out


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy(), dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g.reshape(inputs[0].data.shape))

    _record(out, (a,), rule)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose needs a 2-d tensor, got %r" % (a.shape,))
    out = Tensor(a.data.T.copy(), dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g.T)

    _record(out, (a,), rule)
    return out


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start:stop] of the last axis."""
    n = a.data.shape[-1]
    if not (0 <= start < stop <= n):
        raise ShapeError("slice [%d:%d] out of range for axis of size %d" % (start, stop, n))
    out = Tensor(a.data[..., start:stop].copy(), dtype=a.data.dtype)

    def rule(g, inputs):
        t = inputs[0]
        if t.requires_grad:
            t.ensure_grad()
            t.grad[..., start:stop] += g

    _record(out, (a,), rule)
    return out


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError("cannot concatenate %r with %r" % (a.shape, b.shape))
    out = Tensor(np.concatenate([a.data, b.data], axis=-1), dtype=a.data.dtype)
    na = a.data.shape[-1]

    def rule(g, inputs):
        _accum(inputs[0], g[..., :na])
        _accum(inputs[1], g[..., na:])

    _record(out, (a, b), rule)
    return out


def stack_rows(rows: list) -> Tensor:
    """Stack (1, W) row tensors into an (N, W) tensor."""
    if not rows:
        raise ShapeError("cannot stack zero rows")
    for r in rows:
        if r.data.ndim != 2 or r.data.shape[0] != 1:
            raise ShapeError("stack_rows expects (1, W) rows, got %r" % (r.shape,))
    out = Tensor(np.concatenate([r.data for r in rows], axis=0), dtype=rows[0].data.dtype)

    def rule(g, inputs):
        for i, t in enumerate(inputs):
            _accum(t, g[i:i + 1])

    _record(out, tuple(rows), rule)
    return out


def row(a: Tensor, index: int) -> Tensor:
    """Extract row `index` of a 2-d tensor as a (1, W) tensor."""
    if a.data.ndim != 2:
        raise ShapeError("row needs a 2-d tensor, got %r" % (a.shape,))
    if not (0 <= index < a.data.shape[0]):
        raise ShapeError("row %d out of range for %r" % (index, a.shape))
    out = Tensor(a.data[index:index + 1].copy(), dtype=a.data.dtype)

    def rule(g, inputs):
        t = inputs[0]
        if t.requires_grad:
            t.ensure_grad()
            t.grad[index:index + 1] += g

    _record(out, (a,), rule)
    return out


def channels_to_features(a: Tensor) -> Tensor:
    """Fold (C, H, W) to (H, C * W), keeping H as the leading axis."""
    if a.data.ndim != 3:
        raise ShapeError("channels_to_features needs (C, H, W), got %r" % (a.shape,))
    c, h, w = a.shape
    out = Tensor(a.data.transpose(1, 0, 2).reshape(h, c * w).copy(), dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g.reshape(h, c, w).transpose(1, 0, 2))

    _record(out, (a,), rule)
    return out


def sum_all(a: Tensor) -> Tensor:
    """Sum every element to a scalar."""
    out = Tensor(np.sum(a.data, dtype=a.data.dtype), dtype=a.data.dtype)

    def rule(g, inputs):
        t = inputs[0]
        if t.requires_grad:
            t.ensure_grad()
            t.grad += g

    _record(out, (a,), rule)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    out = Tensor(a.data * c, dtype=a.data.dtype)

    def rule(g, inputs):
        _accum(inputs[0], g * c)

    _record(out, (a,), rule)
    return out
