"""Teacher-forced loss, the optimizer step, and the training loop."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from streamst import autodiff as ad
from streamst.decoder import offline_trace
from streamst.errors import ConfigError, TrainingDivergedError
from streamst.model import (BOS_ID, EOS_ID, ModelConfig, Parameters, Vocab, create_parameters,
                            decode_step, encode_utterance, init_decoder_state)
from streamst.synthetic import SyntheticSpec, generate_corpus, split_holdout
from streamst.training import (EpochReport, TrainConfig, _apply_update,
                               _global_norm, train, utterance_loss)

SPEC = SyntheticSpec(frames_per_symbol=4, feat_dim=6, seed=21)


@pytest.fixture()
def cfg():
    return ModelConfig(feat_dim=6, vgg_channels=(2, 3), enc_layers=1,
                       hidden=8, attn_dim=8, embed_dim=6,
                       vocab=SPEC.target_vocab)


@pytest.fixture()
def params(cfg):
    return create_parameters(cfg, seed=1)


@pytest.fixture()
def corpus():
    return generate_corpus(SPEC, 12, 4, 8, seed=2)


def snapshot(params):
    return {name: t.data.copy() for name, t in params}


# ---------------------------------------------------------------------------
# loss


def test_loss_counts_tokens_including_the_end_marker(cfg, params, corpus):
    utt = corpus[0]
    loss, n_tok = utterance_loss(utt.frames, utt.target, params, cfg)
    assert n_tok == len(utt.target) + 1
    assert loss.data.shape == ()
    assert math.isfinite(float(loss.data)) and float(loss.data) > 0.0


def test_fresh_model_loss_is_near_uniform_chance(cfg, params, corpus):
    utt = corpus[0]
    loss, n_tok = utterance_loss(utt.frames, utt.target, params, cfg)
    per_token = float(loss.data) / n_tok
    chance = math.log(len(cfg.vocab) + 3)
    assert abs(per_token - chance) < 0.5


def test_loss_backward_reaches_all_parameters(cfg, params, corpus):
    utt = corpus[0]
    with ad.Tape() as tape:
        loss, _ = utterance_loss(utt.frames, utt.target, params, cfg)
    ad.backward(tape, loss)
    for name, t in params:
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


def test_loss_constructs_no_tensor_per_target_token(cfg, params, corpus, monkeypatch):
    """A one-symbol and a longer target on the same frames build the same
    tensors: the encoder's and the loss node's."""
    utt = corpus[0]
    built = helpers.tensors_built(monkeypatch)
    counts = []
    for target in (utt.target[:1], utt.target):
        before = len(built)
        with ad.Tape():
            utterance_loss(utt.frames, target, params, cfg, guide_weight=0.5)
        counts.append(len(built) - before)
    assert len(utt.target) > 1 and counts[0] == counts[1]


def test_guide_window_covers_the_symbol_at_any_frame_rate():
    """At 16 frames per symbol a target character owns four encoder
    positions; the guide term pays for the attention mass outside them."""
    spec = SyntheticSpec(frames_per_symbol=16, feat_dim=6, seed=21)
    utt = generate_corpus(spec, 1, 6, 6, seed=3)[0]
    cfg = ModelConfig(feat_dim=6, vgg_channels=(2, 3), enc_layers=1, hidden=8,
                      attn_dim=8, embed_dim=6, vocab=spec.target_vocab)
    params = create_parameters(cfg, seed=1)
    plain, _ = utterance_loss(utt.frames, utt.target, params, cfg)
    guided, _ = utterance_loss(utt.frames, utt.target, params, cfg, guide_weight=1.0)
    enc = encode_utterance(utt.frames, params, cfg)
    assert enc.shape[0] == 4 * len(utt.target)
    state, prev, want = init_decoder_state(cfg), BOS_ID, 0.0
    for i, tok in enumerate(Vocab(cfg.vocab).encode(utt.target) + [EOS_ID]):
        _, state, attn = decode_step(prev, state, enc.data, params, cfg)
        window = attn[0, 4 * i:4 * i + 4] if tok != EOS_ID else attn[0, -1:]
        want -= math.log(float(window.sum(dtype=np.float64)))
        prev = tok
    assert float(guided.data) - float(plain.data) == pytest.approx(want, rel=1e-4)


SYMBOLS = "ABCDEFGHIJKLMNOPQRST "  # the toy task's target vocabulary


def accumulate(loss_fn, cfg, params, utterances, guide_weight, start):
    """Each utterance's loss bytes, then every parameter's gradient bytes
    after backward has added all of them into the grads given by start."""
    for name, t in params:
        t.grad = None if start is None else start[name].copy()
    losses = []
    for frames, target in utterances:
        with ad.Tape() as tape:
            loss, _ = loss_fn(frames, target, params, cfg, guide_weight)
        ad.backward(tape, loss)
        losses.append(loss.data.tobytes())
    return losses, {name: t.grad.tobytes() for name, t in params}


@settings(max_examples=100, deadline=None)
@given(feat_dim=st.integers(4, 16), channels=st.tuples(st.integers(1, 4), st.integers(1, 8)),
       enc_layers=st.integers(1, 2), bidirectional=st.booleans(), hidden=st.integers(1, 32),
       attn_dim=st.integers(1, 32), embed_dim=st.integers(1, 16),
       n_symbols=st.integers(1, len(SYMBOLS)),
       shapes=st.lists(st.tuples(st.integers(4, 40), st.integers(0, 8)), min_size=2, max_size=2),
       guide_weight=st.one_of(st.just(0.0), st.floats(0.01, 2.0)), seeded=st.booleans(),
       seed=st.integers(0, 2 ** 16))
# perfbench's toy_config(): the only sizes whose output layer is 64 wide; the second
# utterance has 4 frames, so one encoder position, and an empty target
@example(feat_dim=16, channels=(4, 8), enc_layers=1, bidirectional=False, hidden=32, attn_dim=32,
         embed_dim=16, n_symbols=len(SYMBOLS), shapes=[(40, 7), (4, 0)], guide_weight=0.5,
         seeded=True, seed=3)
def test_loss_and_gradients_have_the_bits_of_the_composed_ops(
        feat_dim, channels, enc_layers, bidirectional, hidden, attn_dim, embed_dim, n_symbols,
        shapes, guide_weight, seeded, seed):
    """utterance_loss records the decoder and loss as one node; its loss and
    the gradients it adds into existing grads are those of the composed
    tape ops, byte for byte."""
    cfg = ModelConfig(feat_dim=feat_dim, vgg_channels=channels, enc_layers=enc_layers,
                      hidden=hidden, bidirectional=bidirectional, attn_dim=attn_dim,
                      embed_dim=embed_dim, vocab=SYMBOLS[:n_symbols])
    rng = np.random.default_rng(seed)
    utterances = [(rng.standard_normal((n_frames, feat_dim)).astype(np.float32),
                   "".join(rng.choice(list(cfg.vocab), size=length)))
                  for n_frames, length in shapes]
    init = create_parameters(cfg, seed=seed)
    start = ({name: rng.standard_normal(t.shape).astype(np.float32) for name, t in init}
             if seeded else None)
    results = []
    for loss_fn in (utterance_loss, helpers.utterance_loss_ops):
        params = Parameters([(name, ad.Tensor(t.data.copy(), requires_grad=True))
                             for name, t in init])
        results.append(accumulate(loss_fn, cfg, params, utterances, guide_weight, start))
    (losses, grads), (want_losses, want_grads) = results
    assert losses == want_losses
    for name, _ in init:
        assert grads[name] == want_grads[name], name


# ---------------------------------------------------------------------------
# optimizer step


def test_global_norm_sums_over_all_gradients(cfg, params):
    params.zero_grads()
    for _, t in params:
        t.grad = np.zeros_like(t.data)
    params["out_b"].grad[:] = 3.0
    n = params["out_b"].data.size
    assert _global_norm(params) == pytest.approx(3.0 * math.sqrt(n))


def test_update_scales_and_steps_against_the_gradient(cfg, params):
    tcfg = TrainConfig(lr=0.1, momentum=0.0, grad_clip=math.inf)  # inf clips nothing
    before = snapshot(params)
    for _, t in params:
        t.grad = np.full_like(t.data, 0.004)
    _apply_update(params, {}, 0.5, tcfg)
    for name, t in params:
        step = before[name] - t.data
        # single precision: weights near 1.0 quantize the tiny step
        assert np.allclose(step, 0.1 * 0.002, atol=5e-7), name


def test_update_clips_by_global_norm(cfg, params):
    tcfg = TrainConfig(lr=1.0, momentum=0.0, grad_clip=1.0)
    before = snapshot(params)
    for _, t in params:
        t.grad = np.full_like(t.data, 100.0)
    _apply_update(params, {}, 1.0, tcfg)
    moved = 0.0
    for name, t in params:
        moved += float(np.sum(np.square(before[name] - t.data, dtype=np.float64)))
    assert math.sqrt(moved) == pytest.approx(1.0, rel=1e-4)


def test_momentum_carries_velocity_between_steps(cfg, params):
    tcfg = TrainConfig(lr=1.0, momentum=0.5, grad_clip=1e9)
    velocity = {}
    before = snapshot(params)
    for _, t in params:
        t.grad = np.full_like(t.data, 0.01)
    _apply_update(params, velocity, 1.0, tcfg)
    for _, t in params:
        t.grad = np.full_like(t.data, 0.01)
    _apply_update(params, velocity, 1.0, tcfg)
    # steps: 0.01 then 0.5*0.01 + 0.01 = 0.015, total 0.025
    for name, t in params:
        assert np.allclose(before[name] - t.data, 0.025, atol=1e-7), name


# ---------------------------------------------------------------------------
# the loop


def test_zero_epochs_leaves_parameters_untouched(cfg, params, corpus):
    before = snapshot(params)
    reports = train(params, cfg, corpus, TrainConfig(epochs=0))
    assert reports == []
    for name, t in params:
        assert np.array_equal(before[name], t.data), name


def test_loss_strictly_decreases_over_first_epochs(cfg, params, corpus):
    tcfg = TrainConfig(epochs=3, lr=0.05, batch_size=4, seed=3,
                       holdout_fraction=0.0)
    reports = train(params, cfg, corpus, tcfg)
    assert [r.epoch for r in reports] == [1, 2, 3]
    losses = [r.mean_loss for r in reports]
    assert all(a > b for a, b in zip(losses, losses[1:])), losses
    assert all(math.isnan(r.holdout_bleu) for r in reports)


def test_holdout_fraction_reports_a_score(cfg, params, corpus):
    tcfg = TrainConfig(epochs=1, batch_size=4, holdout_fraction=0.25)
    reports = train(params, cfg, corpus, tcfg)
    assert len(reports) == 1
    assert 0.0 <= reports[0].holdout_bleu <= 1.0


def test_holdout_decodes_that_hit_the_length_cap_are_counted(cfg, params, corpus):
    (report,) = train(params, cfg, corpus,
                      TrainConfig(epochs=1, batch_size=4, holdout_fraction=0.25))
    _, held = split_holdout(corpus, 0.25)
    capped = sum(offline_trace(u.frames, params, cfg).truncated for u in held)
    assert report.holdout_truncated == capped > 0
    (report,) = train(params, cfg, corpus, TrainConfig(epochs=1, holdout_fraction=0.0))
    assert report.holdout_truncated == 0


def test_training_is_deterministic(cfg, corpus):
    outs = []
    for _ in range(2):
        p = create_parameters(cfg, seed=1)
        reports = train(p, cfg, corpus,
                        TrainConfig(epochs=2, batch_size=4, seed=5,
                                    holdout_fraction=0.25))
        outs.append((reports, snapshot(p)))
    (ra, wa), (rb, wb) = outs
    assert ra == rb
    for name in wa:
        assert np.array_equal(wa[name], wb[name]), name


def test_non_finite_loss_aborts_naming_epoch_and_utterance(cfg, params, corpus):
    params["out_b"].data[:] = np.nan
    with pytest.raises(TrainingDivergedError, match=r"epoch 1 on utt\d{4}"):
        train(params, cfg, corpus, TrainConfig(epochs=1, batch_size=4))


def test_epoch_callback_sees_each_report(cfg, params, corpus):
    seen = []
    train(params, cfg, corpus,
          TrainConfig(epochs=2, batch_size=6, holdout_fraction=0.0),
          on_epoch=seen.append)
    assert [r.epoch for r in seen] == [1, 2]
    assert all(isinstance(r, EpochReport) for r in seen)


def test_train_config_rejects_bad_settings():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(holdout_fraction=1.0)


@pytest.mark.parametrize("field, value", [
    ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", math.nan),
    ("lr", math.nan), ("lr", math.inf), ("guide_weight", math.nan), ("guide_weight", math.inf),
])
def test_train_config_refuses_settings_that_cannot_train(field, value):
    """A negative clip turns every step into gradient ascent, a zero clip
    freezes the weights, and a nan clip silently clips nothing."""
    with pytest.raises(ConfigError, match="%s must be" % field):
        TrainConfig(**{field: value})
