"""Reverse-mode automatic differentiation over numpy arrays.

Tensors carry float32 data by default.  Every op computes its forward on
the inputs' numpy data and hands the result to _op(y, inputs, rule), which
wraps it as a Tensor with the dtype of inputs[0].  An op of two or more
tensors raises ContractError on mixed dtypes rather than cast.  When a Tape
is active and some input requires grad, _op marks the output as requiring
grad and appends (output, rule) to the innermost tape, so the tape is in
execution order.
rule(g) closes over the op's inputs and forward intermediates and adds the
output's gradient g into each input that requires grad.  backward() replays
the tape in reverse, calling rule(out.grad) for every output the loss
reaches.  Code that never records, such as the decoder step, builds no
Tensor or rule: it calls the ops' array-level forwards, _lstm_run and _attend.
One op spans many steps: lstm runs a whole recurrence on plain arrays and
records it as one node whose rule is backpropagation through time.  One
stacked matmul forms every row's input product, bit for bit as a row at a
time would; each step runs in place in buffers allocated once per call,
with one tanh, and the rule reuses the forward's row products.  attention
records the decoder's additive attention weights as one node: its forward
and rule (_attention_grads, which training's decoder node calls too) repeat
the arithmetic of the seven ops it replaces, in their order, so its weights
and gradients have their bits.  maxpool2d's forward is a chain
of np.maximum; only its rule pays for the argmax.
The conv2d forward adds each output's products in the order of a scalar
loop, so its outputs are bit-identical to that loop's; the streaming
equivalence checks rely on it.  It writes the products of a group of input
channels as rows and adds them with _ordered_sum, which adds whole rows in
order; a reduce over a contiguous axis would sum pairwise.  numpy 2.4.6
copies the operands of a multiply whose rows are narrower than a third of
its ufunc buffer through a buffered iterator, at three to four times the
cost per product, so a wide enough group's multiply runs under a buffer no
wider than a row.  That changes speed only: the outputs are the same on
any numpy version.
"""

from __future__ import annotations

import functools
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
    if g.shape == shape:
        return g
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


def _mixed(name: str, *tensors) -> ContractError:
    """The error for an op handed operands of more than one dtype."""
    return ContractError("%s needs one dtype, got %s"
                         % (name, ", ".join(str(t.data.dtype) for t in tensors)))


def _binary(a, b, fwd, grads):
    """fwd(x, y) on the data; grads(g, a, b) gives the operands' gradients."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError("operands must be Tensors")
    if a.data.dtype != b.data.dtype:
        raise _mixed(fwd.__name__, a, b)
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
    """tanh(x / 2) / 2 + 1 / 2: no overflow, and the form lstm's gates use."""
    return np.tanh(x * 0.5) * 0.5 + 0.5


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


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shift-stabilised."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient at a softmax's input, given g at its output y."""
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, shift-stabilised."""
    y = _softmax(a.data)
    return _op(y, (a,), lambda g: _accum(a, _softmax_grad(g, y)))


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul needs 2-d operands, got %r and %r" % (a.shape, b.shape))
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul mismatch: %r by %r" % (a.shape, b.shape))
    if a.data.dtype != b.data.dtype:
        raise _mixed("matmul", a, b)

    def rule(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _op(a.data @ b.data, (a, b), rule)


def _attend(vd, wed, qd, wdd, sv) -> tuple:
    """attention's forward on arrays: the (P, A) tanh scores, the (1, P) weights."""
    if not (vd.ndim == wed.ndim == qd.ndim == wdd.ndim == 2 and len(vd) >= 1 and len(qd) == 1
            and wed.shape[0] == vd.shape[1] and wdd.shape == (qd.shape[1], wed.shape[1])
            and sv.shape == (wed.shape[1], 1)):
        raise ShapeError("attention cannot score values %r with we %r, query %r, wd %r, v %r"
                         % (vd.shape, wed.shape, qd.shape, wdd.shape, sv.shape))
    e = np.tanh(vd @ wed + qd @ wdd)  # (P, A)
    return e, _softmax((e @ sv).reshape(1, -1))  # the (P, 1) scores as a (1, P) row


def _attention_grads(g, y, e, tanh_grad, qd, values, we, wd, v) -> np.ndarray:
    """attention's rule for g at its (1, P) weights y, given the forward's
    tanh scores e, their 1 - e * e and the query's data qd: adds into values,
    we, wd and v and returns the query's gradient.  Its products with inner
    dimension 1 stay matmuls: a broadcast multiply would give -0.0 where
    they give +0.0, and a gradient holding -0.0 would keep it."""
    ds = _softmax_grad(g, y).reshape(-1, 1)  # at the scores, (P, 1)
    _accum(v, e.T @ ds)
    ds = (ds @ v.data.T) * tanh_grad  # at the tanh's input, (P, A)
    dq = ds.sum(axis=0, keepdims=True)
    _accum(wd, qd.T @ dq)
    _accum(values, ds @ we.data.T)
    _accum(we, values.data.T @ ds)
    return dq @ wd.data.T


def attention(values: Tensor, we: Tensor, query: Tensor, wd: Tensor, v: Tensor) -> Tensor:
    """Additive attention weights over the (P, E) rows of values: the (1, P)
    softmax((tanh(values @ we + query @ wd) @ v).T) for a (1, D) query,
    weights we (E, A) and wd (D, A), and a (A, 1) scorer v.

    One tape node in place of seven: matmul, matmul, add, tanh, matmul,
    transpose and softmax.  The forward makes their numpy calls, and the rule
    repeats their rules' arithmetic in their order, so the weights and every
    gradient have the bits of those ops composed.
    """
    operands = (values, we, query, wd, v)
    if any(t.data.dtype != values.data.dtype for t in operands):
        raise _mixed("attention", *operands)
    e, y = _attend(values.data, we.data, query.data, wd.data, v.data)

    def rule(g):
        _accum(query, _attention_grads(g, y, e, 1 - e * e, query.data, values, we, wd, v))

    return _op(y, operands, rule)


# ---------------------------------------------------------------------------
# recurrence


@functools.cache
def _gate_affine(n: int, dtype) -> tuple:
    """Read-only (1, 4n) rows (half, shift) such that tanh(z * half) * half
    + shift is _sigmoid(z) on the input, forget and output columns and
    tanh(z) on the cell columns.  There half is 1 and shift is -0.0, the one
    addend that leaves every value as it is."""
    half, shift = np.full((1, 4 * n), 0.5, dtype=dtype), np.full((1, 4 * n), 0.5, dtype=dtype)
    half[:, 2 * n:3 * n], shift[:, 2 * n:3 * n] = 1, -0.0
    half.flags.writeable = shift.flags.writeable = False
    return half, shift


def _lstm_run(xd, h, c, wxd, whd, bd, reverse: bool = False) -> tuple:
    """lstm's checked forward on arrays: (T, 1, 4H) input products, (T, H) h and c rows."""
    n = whd.shape[0]
    if (xd.ndim != 2 or len(xd) < 1 or wxd.shape != (xd.shape[1], 4 * n) or whd.shape != (n, 4 * n)
            or bd.shape != (4 * n,) or h.shape != (1, n) or c.shape != (1, n)):
        raise ShapeError("lstm cannot run x %r from state %r, %r with weights %r, %r, %r"
                         % (xd.shape, h.shape, c.shape, wxd.shape, whd.shape, bd.shape))
    t_len, dt = len(xd), xd.dtype
    if not h.dtype == c.dtype == wxd.dtype == whd.dtype == bd.dtype == dt:
        raise ContractError("lstm needs one dtype, got x %s, h0 %s, c0 %s, wx %s, wh %s, b %s"
                            % (dt, h.dtype, c.dtype, wxd.dtype, whd.dtype, bd.dtype))
    # (1, 4H) operands: an in-place op on the gate row takes about half the
    # time with a same-shape operand as with a broadcast 1-d one
    bd = bd.reshape(1, 4 * n)
    half, shift = _gate_affine(n, dt)
    # (T, 1, 4H): matmul runs the (1, F) product once per row, so each row has
    # the bits of xd[t:t + 1] @ wxd; a (T, F) sgemm would not, for F >= 56
    xw = np.matmul(xd[:, None, :], wxd)
    hs, cs = np.empty((t_len, n), dtype=dt), np.empty((t_len, n), dtype=dt)
    slices, zh = np.empty((4, 1, n), dtype=dt), np.empty((1, 4 * n), dtype=dt)
    zi, zf, zg, zo = slices  # the gate row's input, forget, cell and output slices
    z = slices.reshape(1, 4 * n)
    order = slice(None, None, -1) if reverse else slice(None)
    # The step walks (1, ...) row views in step order, calls numpy through
    # local names and passes out positionally: about a tenth of a step less
    # than indexing rows and in-place operators.
    add, mul, dot, tanh_ = np.add, np.multiply, np.dot, np.tanh
    for xw_t, c_t, h_t in zip(xw[order], cs[order, None], hs[order, None]):
        add(xw_t, dot(h, whd, zh), z)  # np.dot: matmul's bits on a row
        add(z, bd, z)
        mul(z, half, z)  # one tanh: sigmoid on the i, f and o columns, tanh on the cell ones
        tanh_(z, z)
        mul(z, half, z)
        add(z, shift, z)
        c = mul(zf, c, c_t)
        mul(zg, zi, zg)
        add(c, zg, c)
        h = tanh_(c, h_t)
        mul(h, zo, h)
    return xw, hs, cs


def _gate_terms(xw, h_prev, c_prev, c, wh, b) -> tuple:
    """(dc_dh, by_dc, by_dh, forget gate) of m lstm steps at once, from their
    (m, 1, 4H) input products and (m, H) states: the input, forget and cell
    gates' gradients are dc times by_dc, the output gate's dh times by_dh."""
    n = wh.shape[0]
    gates = (xw + np.matmul(h_prev[:, None, :], wh))[:, 0] + b
    sig = _sigmoid(gates)
    i, f, o = sig[:, :n], sig[:, n:2 * n], sig[:, 3 * n:]
    cell, tc = np.tanh(gates[:, 2 * n:3 * n]), np.tanh(c)
    by_dc = np.stack([cell * i * (1 - i), c_prev * f * (1 - f), i * (1 - cell * cell)], axis=1)
    return o * (1 - tc * tc), by_dc, tc * o * (1 - o), f


def lstm(x: Tensor, h0: Tensor, c0: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
         reverse: bool = False):
    """An LSTM over the (T, F) rows of x from the (1, H) state (h0, c0).

    Gate layout along the 4H axis is input, forget, cell, output.  Steps read
    the rows in order, or last to first when reverse, and each keeps only its
    h and c rows.  Returns the (T, H) hidden rows, row t from the step that
    read row t, and the final h and c; the final h shares its row's gradient.
    Every operand must have x's dtype; nothing is cast.  One stacked call
    forms every row's input product, row by row as a (1, F) product would,
    and each step adds its h product to its row: a fixed run of in-place
    numpy calls in which one tanh activates the whole (1, 4H) gate row and c
    and h go straight into their rows.  Its bits equal those of a cell built
    from this module's ops.
    """
    xd, wxd, whd = x.data, wx.data, wh.data
    xw, hs, cs = _lstm_run(xd, h0.data, c0.data, wxd, whd, b.data, reverse)
    (t_len, n), dt = hs.shape, hs.dtype
    last = slice(0, 1) if reverse else slice(t_len - 1, None)  # the last step's row

    def rule(g):
        """Backpropagation through time: the gates are recomputed from the
        forward's own row products, and only the dh and dc recurrence runs
        step by step."""
        if reverse:  # each step's starting state, on the row it read
            hp, cp = np.concatenate([hs[1:], h0.data]), np.concatenate([cs[1:], c0.data])
        else:
            hp, cp = np.concatenate([h0.data, hs[:-1]]), np.concatenate([c0.data, cs[:-1]])
        dc_dh, by_dc, by_dh, f = _gate_terms(xw, hp, cp, cs, whd, b.data)
        dgates = np.empty((t_len, 4 * n), dtype=dt)
        dh_next = np.zeros_like(h0.data)
        dc_next = c_last.grad if c_last.grad is not None else np.zeros_like(c0.data)
        for t in (range(t_len) if reverse else range(t_len - 1, -1, -1)):  # last step first
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
    h_last, c_last = (Tensor(a[last], out.requires_grad, dt) for a in (hs, cs))
    if out.requires_grad:  # allocated now, so the rule runs even if only the final c is reached
        out.grad = np.zeros_like(hs)
        h_last.grad = out.grad[last]
    return out, h_last, c_last


# ---------------------------------------------------------------------------
# convolution and pooling


_CONV_SCRATCH_BYTES = 1 << 18  # cap on one conv2d forward's rows of tap products and sums
# Measured with numpy 2.4.6, OpenBLAS on one thread: a broadcast multiply
# whose rows are narrower than a third of the ufunc buffer goes through
# numpy's buffered iterator at 0.33-0.50 ns per product; a buffer no wider
# than a row makes it run in place at 0.10-0.13 ns.  Below 128 columns the
# small buffer splits each row and is slower ((4, 8, 60): 6.3 us by default,
# 11.4 us with a buffer of 16), and below 8192 products the two switches,
# about 1.6 us, cost more than they save.
_INPLACE_MIN_COLUMNS = 128
_INPLACE_MIN_PRODUCTS = 8192


def _ordered_sum(rows, out) -> None:
    """out[...] = rows[0] + rows[1] + ..., adding whole rows in order.  A
    reduce over the outer axis does that from an initial -0.0, the addend
    that changes no value (its default +0.0 turns -0.0 into 0.0), except
    into one element, which it sums pairwise; there an accumulate does."""
    if out.size == 1:
        out[...] = np.add.accumulate(rows.reshape(-1))[-1]
    else:
        np.add.reduce(rows, axis=0, out=out, initial=-0.0)


def _sum_taps(taps, weights, start, cols) -> None:
    """cols[co, q] = start[co] + taps[0, 0, 0, 0, q] * weights[0, 0, 0, co, 0] + ...

    Works through the columns in tiles as wide as one input channel's tap
    products and their sums fit into _CONV_SCRATCH_BYTES, and through the
    input channels in groups of as many as then fit.  For each group, one
    multiply writes every tap product into rows 1... of a buffer whose row 0
    holds the sums so far, starting from start, and one _ordered_sum over
    that outer axis adds the rows elementwise in (ci, i, j) row-major order,
    as a scalar loop does.  The sum writes to a contiguous row of its own;
    into a strided view of cols it runs slower.

    A group's multiply of at least _INPLACE_MIN_COLUMNS columns and
    _INPLACE_MIN_PRODUCTS products, whose rows are narrower than a third of
    the ufunc buffer, runs under a buffer of m // 16 * 16 elements, so that
    numpy iterates its operands in place rather than through its buffered
    iterator; the caller's size is restored even if the multiply raises.
    The rule was measured on numpy 2.4.6.  The multiply is elementwise, so
    the outputs are the same on any numpy version; only speed may differ.
    """
    c_in, kh, kw, c_out, _ = weights.shape
    n, k, row = cols.shape[1], kh * kw, c_out * cols.itemsize
    tile = min(n, max(1, _CONV_SCRATCH_BYTES // ((k + 1) * row)))
    # a group's products, the sums so far and the sum's output row
    group = min(c_in, max(1, (_CONV_SCRATCH_BYTES // (tile * row) - 2) // k))
    scratch = np.empty((group * k + 2) * c_out * tile, dtype=cols.dtype)
    for q0 in range(0, n, tile):
        m = min(tile, n - q0)
        buf = scratch[:(group * k + 2) * c_out * m].reshape(group * k + 2, c_out, m)
        sums, rows = buf[0], buf[1:]
        prods = rows[1:].reshape(group, kh, kw, c_out, m)
        rows[0] = start
        for c0 in range(0, c_in, group):
            g = min(group, c_in - c0)
            if c0:
                rows[0] = sums
            a, b, out = taps[c0:c0 + g, ..., q0:q0 + m], weights[c0:c0 + g], prods[:g]
            if (m >= _INPLACE_MIN_COLUMNS and g * k * c_out * m >= _INPLACE_MIN_PRODUCTS
                    and 3 * m < (size := np.getbufsize())):
                np.setbufsize(m // 16 * 16)
                try:
                    np.multiply(a, b, out=out)
                finally:
                    np.setbufsize(size)
            else:
                np.multiply(a, b, out=out)
            _ordered_sum(rows[:g * k + 1], sums)
        cols[:, q0:q0 + m] = sums


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None = None,
           padding: str = "same") -> Tensor:
    """2-d convolution over a (C_in, H, W) input, kernels (C_out, C_in, kh, kw).

    Odd kernel sizes only.  "same" pads with zeros so that the output keeps
    H and W; "valid" does not pad.  The forward works in a layout where the
    time axis H is contiguous.  Each output starts at its bias and adds its
    products in (c_in, kh, kw) row-major order, so it is bit-identical to a
    scalar loop: _sum_taps reduces rows of products over their outer axis,
    which numpy adds row by row, never pairwise.  The backward sums in
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
    ho = h + 2 * ph - kh + 1
    wo = w + 2 * pw - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError("conv2d output would be empty for input %r, kernel (%d, %d), padding %r"
                         % (x.shape, kh, kw, padding))
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError("bias must have shape (%d,), got %r" % (c_out, bias.shape))
    operands = (x, kernels) if bias is None else (x, kernels, bias)
    if any(t.data.dtype != x.data.dtype for t in operands):
        raise _mixed("conv2d", *operands)

    dt, s = x.data.dtype, x.data.itemsize
    # Time-contiguous layout: xp[ci, col, t] is the padded input, and output
    # (co, oi, oj) is column q = oj * hp + oi of row co of the accumulator.
    # The hp - ho columns after each output row but the last are computed and
    # dropped.
    hp = h + 2 * ph
    xp = np.zeros((c_in, w + 2 * pw, hp), dtype=dt)
    xp[:, pw:pw + w, ph:ph + h] = x.data.transpose(0, 2, 1)
    n = (wo - 1) * hp + ho
    # taps[ci, i, j, 0, q] lies q elements after xp[ci, j, i], which is
    # xp[ci, oj + j, oi + i] for q = oj * hp + oi.  The ndarray constructor
    # checks that the view stays inside xp; it costs a seventh of as_strided,
    # which also left a 0.9 MB block allocated for good in a long streaming run.
    taps = np.ndarray((c_in, kh, kw, 1, n), dt, xp, 0, (xp.strides[0], s, hp * s, 0, s))
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
                    dxp[:, i:i + ho, j:j + wo] += np.tensordot(kd[:, :, i, j], g, axes=(0, 0))
            _accum(x, dxp[:, ph:ph + h, pw:pw + w])
        if kernels.requires_grad:
            # windows[ci, oi, oj, i, j] = xp[ci, oi + i, oj + j]
            windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
            _accum(kernels, np.tensordot(g, windows, axes=((1, 2), (1, 2))))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(1, 2)))

    return _op(y, operands, rule)


def maxpool2d(x: Tensor, pool: int = 2) -> Tensor:
    """Non-overlapping max pooling over (C, H, W); ties go to the first
    element in row-major window order, and a window holding a NaN gives NaN.
    Trailing rows and columns that do not fill a window are dropped.

    The forward is a chain of np.maximum over the window's pool * pool
    strided views, from the last element back to the first: np.maximum
    returns its second operand on a tie, so of -0.0 and 0.0 the earlier one
    is kept.  Only the rule finds each window's argmax, to route gradients.
    """
    if x.data.ndim != 3:
        raise ShapeError("maxpool2d input must be (C, H, W), got %r" % (x.shape,))
    c, h, w = x.shape
    ho, wo = h // pool, w // pool
    if ho < 1 or wo < 1:
        raise ShapeError("maxpool2d input %r smaller than window %d" % (x.shape, pool))
    xc = x.data[:, :ho * pool, :wo * pool]
    views = [xc[:, i::pool, j::pool] for i in range(pool) for j in range(pool)]
    y = views[-1].copy()
    for v in reversed(views[:-1]):
        np.maximum(y, v, out=y)

    def rule(g):
        if not x.requires_grad:
            return
        win = (xc.reshape(c, ho, pool, wo, pool)
                 .transpose(0, 1, 3, 2, 4)
                 .reshape(c, ho, wo, pool * pool))
        idx = win.argmax(axis=-1)  # argmax returns the first maximum
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
    if a.data.dtype != b.data.dtype:
        raise _mixed("concat_last", a, b)
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
        if r.data.dtype != rows[0].data.dtype:
            raise _mixed("stack_rows", *rows)
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
