"""Train the toy checkpoint that the ``sweep`` workload decodes with.

Run from the root of the checkout:

    python3 perfbench/make_checkpoint.py [--out perfbench/data/toy.ckpt]

The recipe is the test suite's session model: the warm Adam phase with the
diagonal attention guide, then the low-rate polish phase, on 240 utterances
of 5 to 16 symbols drawn with corpus seed 101 (task seed 77).  The sweep
corpus is drawn from other seeds, and the sweep check verifies that the two
share no source sentence.  Training takes about four and a half minutes on
one core and is bit-reproducible with the same numpy and BLAS.
"""

import argparse
import time

import pin

pin.pin_threads_and_path()

from streamst.model import create_parameters, save_checkpoint  # noqa: E402
from streamst.training import train  # noqa: E402

import workloads as w  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(w.CHECKPOINT))
    args = parser.parse_args()
    corpus = w.checkpoint_corpus()
    cfg = w.toy_config()
    params = create_parameters(cfg, seed=w.CHECKPOINT_INIT_SEED)
    begin = time.monotonic()

    def show(report):
        print("epoch %d  loss/token %.4f  holdout BLEU %.4f"
              % (report.epoch, report.mean_loss, report.holdout_bleu), flush=True)

    for recipe in (w.WARM_RECIPE, w.FINE_RECIPE):
        train(params, cfg, corpus, recipe, on_epoch=show)
    save_checkpoint(args.out, cfg, params)
    print("saved %s after %.0f s" % (args.out, time.monotonic() - begin))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
