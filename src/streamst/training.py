"""Teacher-forced training with momentum SGD or Adam.

Gradients are accumulated per batch without normalizing inside the graph:
each utterance contributes the sum of its token losses, and the accumulated
gradient is rescaled once by the token count of the whole batch.  That keeps
the per-token gradient scale independent of batch composition.

Momentum SGD is the plain default; the additive attention starts with
near-uniform weights and a vanishing gradient, so reaching a useful model
quickly needs the per-parameter scaling of Adam (optimizer="adam").

Even under Adam the attention takes thousands of updates to break symmetry
on its own: while the weights are uniform the context carries no positional
credit, and the alignment gradient is orders of magnitude below the language-
model gradient.  The cure is guide_epochs > 0: for the first few epochs an
auxiliary term rewards attention mass on the diagonal: the synthetic task is
length-preserving, so target character i sits at encoder positions
[i * P // n, (i + 1) * P // n) for P encoder positions and n target
characters.  Reversed-order utterances are exempt.

The loss of one utterance records its encoder op by op, and its decoder and
loss as one tape node, the way autodiff.lstm records a recurrence.  The
node's forward is decode_step, once per target token, on plain arrays.
Its rule is backpropagation through time over the attention, both decoder
LSTM layers, the output layer, the log-softmax picks and the guide, with the
bits of those ops composed: lstm's own gate terms (autodiff._gate_terms),
attention's own rule (autodiff._attention_grads), and each step's terms added
into each input's gradient as the loop reaches that step, last step first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .decoder import offline_trace
from .errors import ConfigError, InsufficientFramesError, TrainingDivergedError
from .metrics import bleu
from .model import (BOS_ID, EOS_ID, MIN_CHUNK_FRAMES, ModelConfig, Parameters, Vocab,
                    decode_step, encode_utterance, init_decoder_state)
from .synthetic import split_holdout


OPTIMIZERS = ("momentum", "adam")
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# what decode_step reads, in the order of utterance_loss's node inputs after the encoder outputs
_DECODER_PARAMETERS = ("embed", "attn_enc", "attn_dec", "attn_v", "dec0_wx", "dec0_wh", "dec0_b",
                       "dec1_wx", "dec1_wh", "dec1_b", "out_w", "out_b")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    lr: float = 0.05
    momentum: float = 0.9     # SGD velocity decay; first-moment decay for Adam
    grad_clip: float = 1.0
    batch_size: int = 8
    optimizer: str = "momentum"
    guide_epochs: int = 0     # initial epochs with the diagonal attention guide
    guide_weight: float = 0.5
    seed: int = 0
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must not be negative")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite, got %r" % (self.lr,))
        if not self.grad_clip > 0:  # inf means no clipping; nan is refused
            raise ConfigError("grad_clip must be positive, got %r" % (self.grad_clip,))
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must be within [0, 1)")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError("optimizer must be one of %s, got %r"
                              % ("/".join(OPTIMIZERS), self.optimizer))
        if self.guide_epochs < 0:
            raise ConfigError("guide_epochs must not be negative")
        if not 0 <= self.guide_weight < math.inf:
            raise ConfigError("guide_weight must be non-negative and finite, got %r"
                              % (self.guide_weight,))
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ConfigError("holdout_fraction must be within [0, 1)")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    mean_loss: float        # cross entropy per target token, in nats
    holdout_bleu: float     # character BLEU on greedy holdout decodes
    holdout_truncated: int  # holdout decodes that hit the length cap


def utterance_loss(frames: np.ndarray, target: str, params: Parameters,
                   cfg: ModelConfig, guide_weight: float = 0.0):
    """Summed token cross entropy under teacher forcing.

    Returns (loss tensor, token count); the count includes the end token.
    Must be called with a tape active if gradients are wanted.

    With guide_weight > 0 each step also pays
    -guide_weight * log(attention mass on the diagonal window), where the
    window for target position i is the run of encoder positions covering
    source symbol i (the end token takes the last position).  Only
    meaningful for monotone length-preserving targets.

    The encoder is recorded op by op; the decoder and the loss are one tape
    node.  Its forward is decode_step, called once per token on the arrays
    of the encoder outputs and the parameters.  Its rule, _decoder_rule,
    adds into each input what the composed ops' rules would, with their bits
    and in their order: each step's terms as it reaches that step, last step
    first.
    """
    vocab = Vocab(cfg.vocab)
    token_ids = vocab.encode(target) + [EOS_ID]
    enc = encode_utterance(np.asarray(frames, dtype=np.float32), params, cfg)
    weights = [params[name] for name in _DECODER_PARAMETERS]
    state, steps = init_decoder_state(cfg), []
    for prev in [BOS_ID] + token_ids[:-1]:  # each step reads the previous target token
        logits, state, attn = decode_step(prev, state, enc.data, params, cfg)
        steps.append((logits, attn, state))
    m, dt = len(token_ids), enc.dtype
    probs = ad._softmax(np.concatenate([logits for logits, _, _ in steps]))  # (m, V)
    # the loss adds these rows in this order: each step's log-probability of
    # its token, then, with the guide, its window term
    rows = np.empty((m, 2 if guide_weight > 0.0 else 1), dtype=dt)
    rows[:, 0] = np.log(probs[np.arange(m), token_ids])
    windows, mass = [], None
    if guide_weight > 0.0:
        p_len, n_sym = enc.shape[0], max(1, len(target))
        for i in range(m):
            lo = min(i * p_len // n_sym, p_len - 1)
            windows.append((lo, max(lo + 1, min((i + 1) * p_len // n_sym, p_len))))
        mass = np.array([np.sum(attn[0, lo:hi], dtype=dt)
                         for (_, attn, _), (lo, hi) in zip(steps, windows)])
        rows[:, 1] = np.log(mass) * guide_weight
    total = np.sum(rows.reshape(-1, 1), dtype=dt)
    rule = lambda g: _decoder_rule(g, enc, weights, cfg, token_ids, steps, probs,  # noqa: E731
                                   guide_weight, windows, mass)
    return ad._op(total * -1.0, (enc, *weights), rule), m


def _decoder_rule(g, enc, weights, cfg, token_ids, steps, probs, guide_weight, windows, mass):
    """Backpropagation through utterance_loss's decoder and loss.

    The loss's softmax terms, the contexts, the attention's tanh scores and
    the lstm gate terms are recomputed for all m steps at once.  The rest
    runs step by step, last step first, as the composed ops' rules do: the
    dh and dc recurrence, and each step's terms added into each input's
    gradient, the attention's through autodiff._attention_grads.  Each
    gradient buffer is fetched once, with a zero sink in place of an input
    that does not require grad.  Each row product is a 2-d call on a (1, K)
    row or a stacked (m, 1, K) matmul, never an (m, K) sgemm, whose rows
    would differ; the node's own one-term products are broadcast multiplies.
    """
    embed, we, wd, v, wx0, wh0, b0, wx1, wh1, b1, out_w, out_b = weights
    m, dt, n, n_emb = len(token_ids), enc.dtype, cfg.hidden, cfg.embed_dim
    vd = enc.data
    prev_ids = [BOS_ID] + token_ids[:-1]
    attn = np.concatenate([a for _, a, _ in steps])  # (m, P)
    h0, c0, h1, c1 = (np.concatenate([s[layer][k] for _, _, s in steps])
                      for layer in (0, 1) for k in (0, 1))
    zero = np.zeros((1, n), dtype=dt)
    h0_prev, c0_prev, h1_prev, c1_prev = (np.concatenate([zero, a[:-1]])
                                          for a in (h0, c0, h1, c1))
    ctx = np.matmul(attn[:, None, :], vd)[:, 0]  # (m, C)
    x0 = np.concatenate([embed.data[prev_ids], ctx], axis=1)  # the first layer's inputs
    z = np.concatenate([h1, ctx], axis=1)  # the output layer's inputs
    # the loss: g times -1 at each picked log-probability, then log and softmax
    gy = np.zeros_like(probs)
    gy[np.arange(m), token_ids] = g * -1.0
    gy /= probs
    gl = ad._softmax_grad(gy, probs)  # at the logits
    gz = np.matmul(gl[:, None, :], out_w.data.T)[:, 0]  # at each (h1, context) row
    ga0 = np.zeros_like(attn)  # at the attention weights, from the guide
    if windows:
        term = (g * -1.0 * guide_weight) / mass
        for t, (lo, hi) in enumerate(windows):
            ga0[t, lo:hi] = term[t]
    e = np.tanh(vd @ we.data + np.matmul(h1_prev[:, None, :], wd.data))  # (m, P, A)
    tanh_grad = 1 - e * e
    xw0, xw1 = np.matmul(x0[:, None, :], wx0.data), np.matmul(h0[:, None, :], wx1.data)
    dc_dh0, by_dc0, by_dh0, f0 = ad._gate_terms(xw0, h0_prev, c0_prev, c0, wh0.data, b0.data)
    dc_dh1, by_dc1, by_dh1, f1 = ad._gate_terms(xw1, h1_prev, c1_prev, c1, wh1.data, b1.data)
    dg0, dg1 = np.empty((1, 4 * n), dtype=dt), np.empty((1, 4 * n), dtype=dt)
    wh0_t, wx0_t, wh1_t, wx1_t, vd_t = wh0.data.T, wx0.data.T, wh1.data.T, wx1.data.T, vd.T
    g_emb, g_wx0, g_wh0, g_b0, g_wx1, g_wh1, g_b1, g_out_w, g_out_b, g_enc = (
        t.ensure_grad() if t.requires_grad else np.zeros_like(t.data)
        for t in (embed, wx0, wh0, b0, wx1, wh1, b1, out_w, out_b, enc))
    for t in range(m - 1, -1, -1):
        last = t == m - 1
        g_out_b += gl[t]
        g_out_w += z[t, :, None] * gl[t]
        # the second layer's h: the next step's lstm and attention terms, then the output layer's
        dh = gz[t:t + 1, :n] if last else (dh1 + dq_h) + gz[t:t + 1, :n]
        dc = dh * dc_dh1[t] if last else dc1 + dh * dc_dh1[t]
        np.multiply(dc, by_dc1[t], out=dg1[0, :3 * n].reshape(3, n))
        np.multiply(dh[0], by_dh1[t], out=dg1[0, 3 * n:])
        dc1, dh1 = dc * f1[t], dg1 @ wh1_t
        g_wx1 += h0[t, :, None] * dg1[0]
        g_wh1 += h1_prev[t, :, None] * dg1[0]
        g_b1 += dg1[0]
        # the first layer's h: the next step's lstm term, then the second layer's input term
        dh = dg1 @ wx1_t if last else dh0 + dg1 @ wx1_t
        dc = dh * dc_dh0[t] if last else dc0 + dh * dc_dh0[t]
        np.multiply(dc, by_dc0[t], out=dg0[0, :3 * n].reshape(3, n))
        np.multiply(dh[0], by_dh0[t], out=dg0[0, 3 * n:])
        dc0, dh0 = dc * f0[t], dg0 @ wh0_t
        g_wx0 += x0[t, :, None] * dg0[0]
        g_wh0 += h0_prev[t, :, None] * dg0[0]
        g_b0 += dg0[0]
        gx = dg0 @ wx0_t
        g_emb[prev_ids[t]] += gx[0, :n_emb]
        gctx = gz[t:t + 1, n:] + gx[:, n_emb:]
        # attention: the context's term, then the weights' softmax and the tanh
        g_enc += attn[t, :, None] * gctx[0]
        dq_h = ad._attention_grads(ga0[t:t + 1] + gctx @ vd_t, attn[t:t + 1], e[t],
                                   tanh_grad[t], h1_prev[t:t + 1], enc, we, wd, v)


def _global_norm(params: Parameters) -> float:
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float(np.sum(np.square(p.grad, dtype=np.float64)))
    return math.sqrt(total)


def _apply_update(params: Parameters, state: dict, scale: float,
                  tcfg: TrainConfig) -> None:
    """Rescale accumulated gradients, clip by global norm, step.

    `state` is the optimizer's scratch space, keyed by parameter name:
    the velocity array for momentum SGD, a (first, second) moment pair for
    Adam (which also keeps a step counter under "step#").
    """
    for _, p in params:
        if p.grad is not None:
            p.grad *= np.float32(scale)
    norm = _global_norm(params)
    if norm > tcfg.grad_clip:
        shrink = np.float32(tcfg.grad_clip / norm)
        for _, p in params:
            if p.grad is not None:
                p.grad *= shrink
    if tcfg.optimizer == "adam":
        _adam_step(params, state, tcfg)
    else:
        _momentum_step(params, state, tcfg)


def _momentum_step(params: Parameters, state: dict, tcfg: TrainConfig) -> None:
    for name, p in params:
        if p.grad is None:
            continue
        v = state.get(name)
        if v is None:
            v = np.zeros_like(p.data)
            state[name] = v
        v *= np.float32(tcfg.momentum)
        v += p.grad
        p.data -= np.float32(tcfg.lr) * v


def _adam_step(params: Parameters, state: dict, tcfg: TrainConfig) -> None:
    step = state.get("step#", 0) + 1
    state["step#"] = step
    b1, b2 = tcfg.momentum, ADAM_BETA2
    lr_t = tcfg.lr * math.sqrt(1.0 - b2 ** step) / (1.0 - b1 ** step)
    for name, p in params:
        if p.grad is None:
            continue
        pair = state.get(name)
        if pair is None:
            pair = (np.zeros_like(p.data), np.zeros_like(p.data))
            state[name] = pair
        m, v = pair
        m *= np.float32(b1)
        m += np.float32(1.0 - b1) * p.grad
        v *= np.float32(b2)
        v += np.float32(1.0 - b2) * np.square(p.grad)
        p.data -= np.float32(lr_t) * m / (np.sqrt(v) + np.float32(ADAM_EPS))


def holdout_score(held: list, params: Parameters, cfg: ModelConfig) -> tuple:
    """Character BLEU of greedy decodes against the held-out targets, and
    the number of those decodes that hit the length cap."""
    if not held:
        return float("nan"), 0
    traces = [offline_trace(u.frames, params, cfg) for u in held]
    return (bleu([tr.hypothesis for tr in traces], [u.target for u in held], tokenize="char"),
            sum(tr.truncated for tr in traces))


def train(params: Parameters, cfg: ModelConfig, corpus: list,
          tcfg: TrainConfig, on_epoch=None) -> list:
    """Run the configured optimizer over the corpus; one report per epoch.

    Each corpus item has utt_id, frames, target and reversed_order; the
    attention guide skips reversed-order utterances.
    Refuses, before any update, an utterance of fewer than MIN_CHUNK_FRAMES
    frames, training or held out, naming it.  Raises if any utterance loss
    turns non-finite, naming the epoch and utterance.  With zero epochs the
    parameters are left untouched.
    """
    train_set, held = split_holdout(corpus, tcfg.holdout_fraction)
    if not train_set:
        raise ConfigError("holdout left no training utterances")
    for utt in corpus:
        if len(utt.frames) < MIN_CHUNK_FRAMES:
            raise InsufficientFramesError(
                "utterance %r has %d frames, too few for one encoder position (need at least %d)"
                % (utt.utt_id, len(utt.frames), MIN_CHUNK_FRAMES))
    order = random.Random(tcfg.seed)
    opt_state: dict = {}
    reports = []
    for epoch in range(1, tcfg.epochs + 1):
        shuffled = list(train_set)
        order.shuffle(shuffled)
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(shuffled), tcfg.batch_size):
            batch = shuffled[start:start + tcfg.batch_size]
            params.zero_grads()
            batch_tokens = 0
            for utt in batch:
                guide = (tcfg.guide_weight
                         if epoch <= tcfg.guide_epochs and not utt.reversed_order
                         else 0.0)
                with ad.Tape() as tape:
                    loss, n_tok = utterance_loss(utt.frames, utt.target,
                                                 params, cfg, guide)
                value = float(loss.data)
                if not math.isfinite(value):
                    raise TrainingDivergedError(
                        "loss became %r at epoch %d on %s"
                        % (value, epoch, utt.utt_id))
                ad.backward(tape, loss)
                epoch_loss += value
                epoch_tokens += n_tok
                batch_tokens += n_tok
            _apply_update(params, opt_state, 1.0 / batch_tokens, tcfg)
        report = EpochReport(epoch, epoch_loss / epoch_tokens, *holdout_score(held, params, cfg))
        reports.append(report)
        if on_epoch is not None:
            on_epoch(report)
    return reports
