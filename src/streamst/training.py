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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .decoder import offline_trace
from .errors import ConfigError, TrainingDivergedError
from .metrics import bleu
from .model import (BOS_ID, EOS_ID, ModelConfig, Parameters, Vocab,
                    decode_step, encode_utterance, init_decoder_state)
from .synthetic import split_holdout


OPTIMIZERS = ("momentum", "adam")
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """
    vocab = Vocab(cfg.vocab)
    token_ids = vocab.encode(target) + [EOS_ID]
    enc = encode_utterance(np.asarray(frames, dtype=np.float32), params, cfg)
    state = init_decoder_state(cfg)
    prev = BOS_ID
    picked = []
    p_len = enc.shape[0]
    n_sym = max(1, len(target))
    for i, tok in enumerate(token_ids):
        logits, state, attn = decode_step(prev, state, enc, params, cfg)
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
    Raises if any utterance loss turns non-finite, naming the epoch and
    utterance.  With zero epochs the parameters are left untouched.
    """
    train_set, held = split_holdout(corpus, tcfg.holdout_fraction)
    if not train_set:
        raise ConfigError("holdout left no training utterances")
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
