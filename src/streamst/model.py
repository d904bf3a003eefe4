"""Neural building blocks: convolutional front end, LSTM encoder, attention
decoder, parameter initialisation, and checkpoint serialisation.

The front end applies two convolution blocks, each halving the time and
feature axes, so T input frames become floor(floor(T/2)/2) encoder positions.
Every encoder LSTM layer is one autodiff.lstm call: its time loop runs on
plain arrays inside one tape node, and its backward is backpropagation
through time.  The decoder step runs on arrays and records nothing; its
LSTM layers run the same loop, autodiff._lstm_run.  Each input row's product
with wx is the (1, F) row product, whatever the chunk around it, so encoding
a sequence in chunks with carried state is bit-identical to encoding it in
one pass.  The loop forms them in one stacked (T, 1, F) by (F, 4H) matmul,
which runs that row product once per row.  A 2-d (T, F) by (F, 4H) sgemm
would break it: with OpenBLAS 0.3.31, rows of a (64, 64) by (64, 256) sgemm
differ from the row-by-row products.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import BinaryReader, ConfigError, ContractError, InsufficientFramesError

CHECKPOINT_MAGIC = b"STRMST01"

# token ids reserved in every vocabulary
PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
NUM_SPECIALS = 3


class Vocab:
    """Maps target symbols to dense ids above the reserved specials."""

    def __init__(self, symbols: str):
        if not symbols:
            raise ConfigError("vocabulary needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ConfigError("vocabulary symbols must be unique")
        self.symbols = symbols
        self._to_id = {ch: NUM_SPECIALS + i for i, ch in enumerate(symbols)}

    @property
    def size(self) -> int:
        return NUM_SPECIALS + len(self.symbols)

    def encode(self, text: str) -> list[int]:
        try:
            return [self._to_id[ch] for ch in text]
        except KeyError as e:
            raise ConfigError("symbol %r not in vocabulary" % (e.args[0],)) from None

    def decode(self, ids: list[int]) -> str:
        out = []
        for i in ids:
            if i < NUM_SPECIALS:
                continue
            if i >= self.size:
                raise ConfigError("token id %d outside vocabulary of size %d" % (i, self.size))
            out.append(self.symbols[i - NUM_SPECIALS])
        return "".join(out)


@dataclass
class ModelConfig:
    """Architecture hyperparameters."""

    feat_dim: int = 16            # input features per frame
    vgg_channels: tuple = (4, 8)  # channels after each convolution block
    enc_layers: int = 2           # stacked encoder LSTM layers
    hidden: int = 32              # LSTM hidden size (per direction)
    bidirectional: bool = False   # bidirectional encoder reads the full input
    attn_dim: int = 32            # additive attention projection size
    embed_dim: int = 16           # target embedding size
    vocab: str = ""               # target symbols, specials excluded

    def __post_init__(self):
        if self.feat_dim < 4:
            raise ConfigError("feat_dim must be at least 4, got %d" % self.feat_dim)
        if len(self.vgg_channels) != 2 or any(c < 1 for c in self.vgg_channels):
            raise ConfigError("vgg_channels must be two positive values")
        for name in ("enc_layers", "hidden", "attn_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be positive, got %r" % (name, getattr(self, name)))
        if not self.vocab:
            raise ConfigError("vocab must not be empty")

    @property
    def pooled_feat(self) -> int:
        return (self.feat_dim // 2) // 2

    @property
    def frontend_out(self) -> int:
        # flattened features per encoder position
        return self.vgg_channels[1] * self.pooled_feat

    @property
    def enc_out(self) -> int:
        return self.hidden * (2 if self.bidirectional else 1)

    @property
    def vocab_size(self) -> int:
        return NUM_SPECIALS + len(self.vocab)


class Parameters:
    """Named weight tensors in a fixed declaration order."""

    def __init__(self, named: list):
        self._named = list(named)
        self._by_name = {n: t for n, t in self._named}
        if len(self._by_name) != len(self._named):
            raise ConfigError("duplicate parameter name")

    def __getitem__(self, name: str) -> ad.Tensor:
        return self._by_name[name]

    def __iter__(self):
        return iter(self._named)

    def zero_grads(self) -> None:
        for _, t in self._named:
            t.zero_grad()


def _parameter_shapes(cfg: ModelConfig):
    """Declaration-ordered (name, shape) pairs, made one at a time so a
    reader stops at the first tensor its file cannot hold."""
    c0, c1 = cfg.vgg_channels
    h = cfg.hidden
    yield from [
        ("vgg0_conv1_k", (c0, 1, 3, 3)), ("vgg0_conv1_b", (c0,)),
        ("vgg0_conv2_k", (c0, c0, 3, 3)), ("vgg0_conv2_b", (c0,)),
        ("vgg1_conv1_k", (c1, c0, 3, 3)), ("vgg1_conv1_b", (c1,)),
        ("vgg1_conv2_k", (c1, c1, 3, 3)), ("vgg1_conv2_b", (c1,)),
    ]
    directions = ("fwd", "bwd") if cfg.bidirectional else ("fwd",)
    in_dim = cfg.frontend_out
    for layer in range(cfg.enc_layers):
        for d in directions:
            yield from [
                ("enc%d_%s_wx" % (layer, d), (in_dim, 4 * h)),
                ("enc%d_%s_wh" % (layer, d), (h, 4 * h)),
                ("enc%d_%s_b" % (layer, d), (4 * h,)),
            ]
        in_dim = h * len(directions)
    enc_out = cfg.enc_out
    yield from [
        ("dec0_wx", (cfg.embed_dim + enc_out, 4 * h)),
        ("dec0_wh", (h, 4 * h)), ("dec0_b", (4 * h,)),
        ("dec1_wx", (h, 4 * h)), ("dec1_wh", (h, 4 * h)), ("dec1_b", (4 * h,)),
        ("attn_enc", (enc_out, cfg.attn_dim)),
        ("attn_dec", (h, cfg.attn_dim)),
        ("attn_v", (cfg.attn_dim, 1)),
        ("out_w", (h + enc_out, cfg.vocab_size)),
        ("out_b", (cfg.vocab_size,)),
        ("embed", (cfg.vocab_size, cfg.embed_dim)),
    ]


def create_parameters(cfg: ModelConfig, seed: int = 0) -> Parameters:
    """Uniform(-0.1, 0.1) init, then forget-gate biases pushed up by 1."""
    rng = np.random.default_rng(seed)
    named = []
    for name, shape in _parameter_shapes(cfg):
        data = rng.uniform(-0.1, 0.1, size=shape).astype(np.float32)
        named.append((name, ad.Tensor(data, requires_grad=True)))
    params = Parameters(named)
    h = cfg.hidden
    for name, t in params:
        if name.endswith("_b") and ("enc" in name or "dec" in name) and t.data.shape == (4 * h,):
            t.data[h:2 * h] += 1.0
    return params


# ---------------------------------------------------------------------------
# forward passes

# Each front-end block ends in a 2x2 pool that halves time, so the two blocks
# give one encoder position per 4 frames; fewer frames give none.
MIN_CHUNK_FRAMES = 4


def vgg_forward(frames, params: Parameters, cfg: ModelConfig) -> ad.Tensor:
    """Run the two-block convolutional front end over (T, D) frames.

    Returns (P, F) position features with P = floor(floor(T/2)/2).  Inputs
    shorter than MIN_CHUNK_FRAMES would produce no positions and are rejected.
    """
    x = frames if isinstance(frames, ad.Tensor) else ad.Tensor(frames)
    if x.data.ndim != 2:
        raise ContractError("frames must be (T, D), got %r" % (x.shape,))
    t_len, d = x.shape
    if d != cfg.feat_dim:
        raise ConfigError("frames have %d features, model expects %d" % (d, cfg.feat_dim))
    if t_len < MIN_CHUNK_FRAMES:
        raise InsufficientFramesError("%d frames produce no encoder positions (need at least %d)"
                                      % (t_len, MIN_CHUNK_FRAMES))
    h = ad.reshape(x, (1, t_len, d))
    for b in range(2):
        h = ad.tanh(ad.conv2d(h, params["vgg%d_conv1_k" % b], params["vgg%d_conv1_b" % b]))
        h = ad.tanh(ad.conv2d(h, params["vgg%d_conv2_k" % b], params["vgg%d_conv2_b" % b]))
        h = ad.maxpool2d(h)
    return ad.channels_to_features(h)


def zero_state(hidden: int, dtype=np.float32):
    """A fresh (h, c) pair of (1, hidden) zero tensors of the given dtype."""
    return tuple(ad.Tensor(np.zeros((1, hidden), dtype), dtype=dtype) for _ in range(2))


def _weights(params: Parameters, prefix: str):
    """The (wx, wh, b) triple of the LSTM named prefix."""
    return params[prefix + "_wx"], params[prefix + "_wh"], params[prefix + "_b"]


def encoder_forward(feats: ad.Tensor, params: Parameters, cfg: ModelConfig,
                    init: list | None = None):
    """Run the stacked encoder over (P, F) position features.

    Unidirectional mode threads carried state (one (h, c) pair per layer)
    through every layer and returns the final pairs, so a later call on the
    following positions continues the sequence exactly.  Bidirectional mode
    also runs each layer from the last row back and joins the two directions
    row by row; it rejects carried state and returns None for the state.
    """
    if cfg.bidirectional and init is not None:
        raise ConfigError("bidirectional encoder cannot resume from carried state")
    if feats.shape[0] < 1:
        raise ContractError("encoder needs at least one position")
    out, final = feats, []
    for layer in range(cfg.enc_layers):
        state = init[layer] if init is not None else zero_state(cfg.hidden, feats.dtype)
        fwd, h, c = ad.lstm(out, *state, *_weights(params, "enc%d_fwd" % layer))
        final.append((h, c))
        if cfg.bidirectional:
            bwd, _, _ = ad.lstm(out, *zero_state(cfg.hidden, feats.dtype),
                                *_weights(params, "enc%d_bwd" % layer), reverse=True)
            fwd = ad.concat_last(fwd, bwd)
        out = fwd
    return out, (None if cfg.bidirectional else final)


def encode_utterance(frames, params: Parameters, cfg: ModelConfig) -> ad.Tensor:
    """Front end plus encoder over a whole utterance, fresh state."""
    feats = vgg_forward(frames, params, cfg)
    outputs, _ = encoder_forward(feats, params, cfg)
    return outputs


def init_decoder_state(cfg: ModelConfig) -> list:
    return [tuple(np.zeros((1, cfg.hidden), np.float32) for _ in range(2)) for _ in range(2)]


def decode_step(prev_token: int, state: list, enc_outputs: np.ndarray,
                params: Parameters, cfg: ModelConfig):
    """One decoder step on arrays, recording nothing: attend over the
    (P, enc_out) encoder outputs, advance both LSTM layers from their (h, c)
    pairs, and produce next-token logits.  Returns (logits (1, V), new_state,
    attention weights (1, P)) with the bits of the autodiff ops that compose
    the step, whose numpy calls it makes in their order.  enc_outputs and the
    state must have the weights' dtype.
    """
    if enc_outputs.ndim != 2 or enc_outputs.shape[0] < 1:
        raise ContractError("decode_step needs non-empty encoder outputs, got %r"
                            % (enc_outputs.shape,))
    if not (0 <= prev_token < cfg.vocab_size):
        raise ContractError("token id %d outside vocabulary of size %d"
                            % (prev_token, cfg.vocab_size))
    dtypes = [enc_outputs.dtype] + [a.dtype for pair in state for a in pair]
    if any(dt != params["embed"].dtype for dt in dtypes):
        raise ContractError("decode_step needs the weights' dtype %s for its encoder outputs and "
                            "state, got %s" % (params["embed"].dtype, ", ".join(map(str, dtypes))))
    query = state[1][0]  # top layer hidden drives attention
    _, attn = ad._attend(enc_outputs, params["attn_enc"].data, query, params["attn_dec"].data,
                         params["attn_v"].data)  # (1, P)
    context = attn @ enc_outputs  # (1, enc_out)
    x = np.concatenate([params["embed"].data[prev_token:prev_token + 1], context], axis=-1)
    _, h0, c0 = ad._lstm_run(x, *state[0], *(w.data for w in _weights(params, "dec0")))
    _, h1, c1 = ad._lstm_run(h0, *state[1], *(w.data for w in _weights(params, "dec1")))
    logits = np.concatenate([h1, context], axis=-1) @ params["out_w"].data + params["out_b"].data
    return logits, [(h0, c0), (h1, c1)], attn


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(path, cfg: ModelConfig, params: Parameters) -> None:
    """Write config and weights; tensors follow the declaration order."""
    vocab_bytes = cfg.vocab.encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<8I", cfg.feat_dim, cfg.vgg_channels[0], cfg.vgg_channels[1],
                            cfg.enc_layers, 1 if cfg.bidirectional else 0,
                            cfg.hidden, cfg.attn_dim, cfg.embed_dim))
        f.write(struct.pack("<I", len(vocab_bytes)))
        f.write(vocab_bytes)
        for _, tensor in params:
            f.write(tensor.data.astype("<f4").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back; returns (config, parameters)."""
    f = BinaryReader(path, CHECKPOINT_MAGIC)
    fields = f.unpack("<8I")
    vocab = f.text()
    try:
        cfg = ModelConfig(feat_dim=fields[0], vgg_channels=(fields[1], fields[2]),
                          enc_layers=fields[3], bidirectional=bool(fields[4]),
                          hidden=fields[5], attn_dim=fields[6], embed_dim=fields[7],
                          vocab=vocab)
    except ConfigError as e:
        raise ConfigError("%s: %s" % (path, e)) from None
    params = Parameters([(name, ad.Tensor(f.tensor(shape), requires_grad=True))
                         for name, shape in _parameter_shapes(cfg)])
    f.end()
    return cfg, params
