"""Shared fixtures: the toy task, corpora, and a trained session model.

The trained model is built once per session (a couple of minutes of CPU) and
reused by every end-to-end test.  The recipe is the fastest known convergent
one for this architecture: Adam with a short diagonal-attention guide phase,
then a low-rate polish phase.
"""

import re
import time

import pytest

from streamst.model import ModelConfig, create_parameters
from streamst.synthetic import SyntheticSpec, generate_corpus, split_holdout
from streamst.training import TrainConfig, holdout_score, train

TASK = SyntheticSpec(seed=77)


@pytest.fixture(scope="session")
def task():
    return TASK


@pytest.fixture(scope="session")
def monotone_corpus():
    return generate_corpus(TASK, 240, 5, 16, seed=101)


@pytest.fixture(scope="session")
def mixed_corpus():
    # min_len 9 keeps every utterance at two or more words, so reversal
    # always produces a genuinely reordered target
    return generate_corpus(TASK, 240, 9, 24, reversal_fraction=0.1, seed=202)


def toy_model_config():
    return ModelConfig(vocab=TASK.target_vocab, vgg_channels=(4, 8),
                       enc_layers=1)


WARM_RECIPE = TrainConfig(epochs=24, lr=0.01, batch_size=4, optimizer="adam",
                          guide_epochs=3, guide_weight=0.5, seed=7)
FINE_RECIPE = TrainConfig(epochs=8, lr=0.002, batch_size=4, optimizer="adam",
                          seed=8)


@pytest.fixture(scope="session")
def trained(monotone_corpus):
    """(cfg, params, held-out utterances, held-out offline BLEU, seconds)."""
    cfg = toy_model_config()
    params = create_parameters(cfg, seed=7)
    begin = time.monotonic()
    train(params, cfg, monotone_corpus, WARM_RECIPE)
    train(params, cfg, monotone_corpus, FINE_RECIPE)
    seconds = time.monotonic() - begin
    _, held = split_holdout(monotone_corpus, WARM_RECIPE.holdout_fraction)
    offline, _ = holdout_score(held, params, cfg)
    return cfg, params, held, offline, seconds


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion that ran."""
    verdict: dict = {}
    for outcome, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m:
                num = int(m.group(1))
                verdict[num] = verdict.get(num, True) and ok
    if not verdict:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdict):
        terminalreporter.write_line(
            "criterion %d: %s" % (num, "PASS" if verdict[num] else "FAIL"))
