"""Shared test oracles: scalar-loop references and finite-difference checks.

These are written independently of the library kernels on purpose.  The
convolution and pooling references iterate one output element at a time with
plain python loops; the gradient check runs the same computation graph in
float64 and differentiates it numerically with central differences.  The
decoding references keep separate greedy loops for mid-stream reads, the
final read and offline translation, and run the decoder step composed of
tape ops, as does the teacher-forced loss.  The LSTM references are the cell
composed of tape ops, for gradients, and a plain-array cell that activates
each gate slice on its own, for outputs.
"""

import numpy as np

from streamst import autodiff as ad
from streamst import decoder as dec
from streamst.encoding import EncoderStream
from streamst.errors import ConfigError, InsufficientFramesError
from streamst.model import BOS_ID, EOS_ID, Vocab, _weights, encode_utterance, zero_state
from streamst.synthetic import LoadedCorpus


def _pad(x, k, padding):
    """Zero-pad (C_in, H, W) for kernels k; returns the padded input, ph, pw."""
    c_in, h, w = x.shape
    kh, kw = k.shape[2:]
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    xp = np.zeros((c_in, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, ph:ph + h, pw:pw + w] = x
    return xp, ph, pw


def conv2d_loop(x, k, bias=None, padding="same"):
    """Scalar-loop 2-d convolution oracle over (C_in, H, W)."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp, ph, pw = _pad(x, k, padding)
    ho = h + 2 * ph - kh + 1
    wo = w + 2 * pw - kw + 1
    y = np.zeros((c_out, ho, wo), dtype=x.dtype)
    for co in range(c_out):
        for oi in range(ho):
            for oj in range(wo):
                acc = x.dtype.type(0) if bias is None else bias[co]
                for ci in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            acc = acc + xp[ci, oi + i, oj + j] * k[co, ci, i, j]
                y[co, oi, oj] = acc
    return y


def conv2d_backward_loop(x, k, g, padding="same"):
    """Per-tap loop oracle for the conv2d gradients.

    g is the upstream gradient of the (C_out, H', W') output.  Returns the
    input, kernel and bias gradients, each summed one kernel tap at a time.
    """
    c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp, ph, pw = _pad(x, k, padding)
    ho, wo = g.shape[1:]
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for co in range(c_out):
        for ci in range(c_in):
            for i in range(kh):
                for j in range(kw):
                    window = (ci, slice(i, i + ho), slice(j, j + wo))
                    dxp[window] += g[co] * k[co, ci, i, j]
                    dk[co, ci, i, j] = np.sum(g[co] * xp[window])
    return dxp[:, ph:ph + h, pw:pw + w], dk, g.sum(axis=(1, 2))


def init_decoder_state_ops(cfg, dtype=np.float32):
    """decode_step_ops' fresh state: two (h, c) pairs of zero tensors."""
    return [zero_state(cfg.hidden, dtype) for _ in range(2)]


def decode_step_ops(prev_token, state, enc_outputs, params, cfg):
    """Decoder step oracle composed of tape ops, on tensors: attention,
    context, both LSTM layers and the output layer, each an op of its own.
    This is how model.decode_step ran before it took arrays; under a tape
    it records every op, so gradients flow through it."""
    emb = ad.row(params["embed"], prev_token)
    query = state[1][0]  # top layer hidden drives attention
    attn = ad.attention(enc_outputs, params["attn_enc"], query, params["attn_dec"],
                        params["attn_v"])  # (1, P)
    context = ad.matmul(attn, enc_outputs)  # (1, enc_out)
    x = ad.concat_last(emb, context)
    hs0, h0, c0 = ad.lstm(x, *state[0], *_weights(params, "dec0"))
    hs1, h1, c1 = ad.lstm(hs0, *state[1], *_weights(params, "dec1"))
    logits = ad.add(ad.matmul(ad.concat_last(hs1, context), params["out_w"]), params["out_b"])
    return logits, [(h0, c0), (h1, c1)], attn


def simulate_loop(frames, plan, policy, params, cfg, strategy):
    """Read/write loop oracle with one greedy loop per kind of read."""
    frames = np.asarray(frames, dtype=np.float32)
    if len(frames) != plan.total_frames:
        raise ConfigError("plan covers %d frames, utterance has %d"
                          % (plan.total_frames, len(frames)))
    vocab = Vocab(cfg.vocab)
    stream = EncoderStream(strategy, params, cfg)
    state = init_decoder_state_ops(cfg)
    prev = BOS_ID
    out_ids = []
    tokens = []
    delays = []
    suppressed = 0
    truncated = False
    consumed = 0
    n_bounds = len(plan.boundaries)
    for idx, bound in enumerate(plan.boundaries):
        is_last = idx == n_bounds - 1
        stream.feed(frames[consumed:bound], is_last=is_last)
        consumed = bound
        enc = stream.outputs
        if enc is None:
            if is_last:
                raise InsufficientFramesError(
                    "utterance %r yields no encoder positions" % (plan.utt_id,))
            continue
        if not is_last:
            for _ in range(policy.write_tokens):
                if len(out_ids) >= policy.cap(stream.positions):
                    break
                logits, new_state, _ = decode_step_ops(prev, state, enc, params, cfg)
                token = int(np.argmax(logits.data[0]))
                if token == EOS_ID:
                    suppressed += 1
                    break
                state = new_state
                prev = token
                out_ids.append(token)
                tokens.append(dec._token_text(vocab, token))
                delays.append(bound * dec.FRAME_MS)
        else:
            while True:
                if len(out_ids) >= policy.cap(stream.positions):
                    truncated = True
                    break
                logits, new_state, _ = decode_step_ops(prev, state, enc, params, cfg)
                token = int(np.argmax(logits.data[0]))
                if token == EOS_ID:
                    break
                state = new_state
                prev = token
                out_ids.append(token)
                tokens.append(dec._token_text(vocab, token))
                delays.append(bound * dec.FRAME_MS)
    return dec.DecodeTrace(utt_id=plan.utt_id, hypothesis=vocab.decode(out_ids),
                           reads=tuple(plan.boundaries), tokens=tokens, delays_ms=delays,
                           cost=stream.cost(), truncated=truncated, suppressed_eos=suppressed)


def offline_translate_loop(frames, params, cfg, policy=None):
    """Greedy decoding oracle over the offline encoding of the utterance."""
    policy = policy or dec.DecodePolicy()
    vocab = Vocab(cfg.vocab)
    enc = encode_utterance(np.asarray(frames, dtype=np.float32), params, cfg)
    cap = policy.cap(enc.shape[0])
    state = init_decoder_state_ops(cfg)
    prev = BOS_ID
    out_ids = []
    while len(out_ids) < cap:
        logits, state, _ = decode_step_ops(prev, state, enc, params, cfg)
        token = int(np.argmax(logits.data[0]))
        if token == EOS_ID:
            break
        prev = token
        out_ids.append(token)
    return vocab.decode(out_ids)


def utterance_loss_ops(frames, target, params, cfg, guide_weight=0.0):
    """Teacher-forced loss oracle composed of tape ops: decode_step_ops once
    per token on the recorded encoder outputs, then log, softmax and a slice per
    token, and the guide's window terms, stacked and summed.  This is how
    training.utterance_loss recorded the decoder before it became one node;
    returns (loss tensor, token count)."""
    token_ids = Vocab(cfg.vocab).encode(target) + [EOS_ID]
    enc = encode_utterance(np.asarray(frames, dtype=np.float32), params, cfg)
    state = init_decoder_state_ops(cfg)
    prev = BOS_ID
    picked = []
    p_len = enc.shape[0]
    n_sym = max(1, len(target))
    for i, tok in enumerate(token_ids):
        logits, state, attn = decode_step_ops(prev, state, enc, params, cfg)
        logp = ad.log(ad.softmax(logits))
        picked.append(ad.slice_last(logp, tok, tok + 1))
        if guide_weight > 0.0:
            lo = min(i * p_len // n_sym, p_len - 1)
            hi = max(lo + 1, min((i + 1) * p_len // n_sym, p_len))
            window = ad.log(ad.sum_all(ad.slice_last(attn, lo, hi)))
            picked.append(ad.reshape(ad.scale(window, guide_weight), (1, 1)))
        prev = tok
    total = ad.sum_all(ad.stack_rows(picked))
    return ad.scale(total, -1.0), len(token_ids)


def _sigmoid_by_tanh(v):
    return np.tanh(v / 2) / 2 + 0.5


def lstm_step_loop(x, h_prev, c_prev, wx, wh, b):
    """LSTM cell oracle on plain arrays, one activation per gate slice.

    Loops over the input, forget, cell and output slices of the gate row and
    applies each its own sigmoid or tanh, on a copy of the slice, with the
    sigmoid written as tanh(v / 2) / 2 + 0.5 by division.  The cell slice
    gets np.tanh alone, so a -0.0 there stays -0.0.  Returns (h, c).
    """
    n = wh.shape[0]
    gates = (x @ wx + h_prev @ wh) + b
    act = []
    for k, fn in enumerate((_sigmoid_by_tanh, _sigmoid_by_tanh, np.tanh, _sigmoid_by_tanh)):
        act.append(fn(gates[..., k * n:(k + 1) * n].copy()))
    i, f, g, o = act
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def lstm_step(x, state, wx, wh, b):
    """LSTM cell oracle composed of tape ops; state is an (h, c) pair of
    Tensors and the new pair is returned.

    Gate layout along the 4H axis is input, forget, cell, output.  One
    sigmoid covers the whole row and the i, f and o gates are sliced out of
    it; elementwise ops give the same bits on a row as on its slices.
    """
    h_prev, c_prev = state
    n = wh.data.shape[0]
    gates = ad.add(ad.add(ad.matmul(x, wx), ad.matmul(h_prev, wh)), b)
    sig = ad.sigmoid(gates)
    i = ad.slice_last(sig, 0, n)
    f = ad.slice_last(sig, n, 2 * n)
    g = ad.tanh(ad.slice_last(gates, 2 * n, 3 * n))
    o = ad.slice_last(sig, 3 * n, 4 * n)
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def lstm_layer_steps(x, h0, c0, wx, wh, b, reverse=False):
    """lstm_step over the rows of the (T, F) Tensor x, called as
    autodiff.lstm is; returns the hidden rows stacked in input order and
    the final h and c."""
    order = range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])
    outs = [None] * x.shape[0]
    state = (h0, c0)
    for t in order:
        state = lstm_step(ad.row(x, t), state, wx, wh, b)
        outs[t] = state[0]
    return (ad.stack_rows(outs), *state)


def maxpool2d_loop(x, pool=2):
    """Scalar-loop max pooling oracle; first maximum in row-major order wins."""
    c, h, w = x.shape
    ho, wo = h // pool, w // pool
    y = np.zeros((c, ho, wo), dtype=x.dtype)
    for ci in range(c):
        for oi in range(ho):
            for oj in range(wo):
                best = x[ci, oi * pool, oj * pool]
                for i in range(pool):
                    for j in range(pool):
                        v = x[ci, oi * pool + i, oj * pool + j]
                        if v > best:
                            best = v
                y[ci, oi, oj] = best
    return y


def matmul_loop(a, b):
    """Triple-loop matrix product oracle."""
    m, k = a.shape
    _, n = b.shape
    y = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = a.dtype.type(0)
            for p in range(k):
                acc = acc + a[i, p] * b[p, j]
            y[i, j] = acc
    return y


def tensors_built(monkeypatch):
    """A list that gains an entry for every Tensor constructed from now on,
    until monkeypatch undoes its patches."""
    built = []
    init = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    return built


def fd_gradcheck(build, arrays, h=1e-3, rtol=1e-3, atol=1e-5, analytic_floor=1e-4):
    """Check analytic gradients of a scalar-valued graph against central
    differences.

    build(tensors) must construct the graph from a list of Tensors and return
    the scalar loss Tensor.  Analytic gradients come from running build on
    float32 tensors under a tape; the numeric reference evaluates the same
    build in float64 at x +/- h per coordinate.  Where the analytic gradient
    magnitude is below analytic_floor the comparison is absolute, elsewhere
    relative.  Returns the worst offending (index, analytic, numeric) triple
    or None when every coordinate passes.
    """
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    with ad.Tape() as tape:
        loss = build(tensors)
    ad.backward(tape, loss)
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def loss64(arrs):
        ts = [ad.Tensor(a, dtype=np.float64) for a in arrs]
        return float(build(ts).data)

    base = [np.asarray(a, dtype=np.float64) for a in arrays]
    worst = None
    for ti, arr in enumerate(base):
        flat = arr.reshape(-1)
        gflat = grads[ti].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss64(base)
            flat[i] = keep - h
            down = loss64(base)
            flat[i] = keep
            num = (up - down) / (2 * h)
            ana = float(gflat[i])
            if abs(ana) < analytic_floor:
                ok = abs(ana - num) <= atol
            else:
                ok = abs(ana - num) <= rtol * max(abs(ana), abs(num))
            if not ok:
                worst = ((ti, i), ana, num)
                return worst
    return worst


def as_loaded(corpus):
    """View generated utterances through the on-disk corpus interface."""
    return LoadedCorpus(
        ids=[u.utt_id for u in corpus],
        features={u.utt_id: u.frames for u in corpus},
        sources={u.utt_id: u.source for u in corpus},
        targets={u.utt_id: u.target for u in corpus},
        word_spans={u.utt_id: u.words for u in corpus},
        alignments=[u.alignment for u in corpus])
