"""Command line harness: corpus generation, training, offline translation,
online simulation sweeps, decoding benchmarks, and report building.

Every command accepts ``--config FILE`` (a JSON object of flag defaults);
explicit flags override the file.  All randomness flows from explicit seeds,
so a repeated run reproduces every output byte except wall-clock columns.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decoder import (FRAME_MS, DecodePolicy, offline_translate, read_traces,
                      simulate, write_traces)
from .encoding import STRATEGIES
from .errors import ConfigError
from .metrics import (bleu, extract_subsets, lagging_difficulty, tradeoff_table,
                      utterance_lagging, write_tradeoff_csv)
from .model import ModelConfig, create_parameters, load_checkpoint, save_checkpoint
from .segmentation import fixed_plan, oracle_word_plan, random_plan
from .synthetic import (SyntheticSpec, generate_corpus, load_corpus, save_corpus)
from .training import OPTIMIZERS, TrainConfig, train

logger = logging.getLogger(__name__)

MAX_SWEEP_RUNS = 10_000

SEGMENTATIONS = ("fixed", "words", "random")


# ---------------------------------------------------------------------------
# corpus generation


@dataclass(frozen=True)
class _Example:
    """The minimal view of an utterance the trainer needs."""

    utt_id: str
    frames: np.ndarray
    target: str
    reversed_order: bool


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(frames_per_symbol=args.frames_per_symbol,
                         feat_dim=args.feat_dim, feature_scale=args.feature_scale,
                         noise_sigma=args.noise_sigma,
                         cipher_shift=args.cipher_shift, seed=args.task_seed)
    corpus = generate_corpus(spec, args.utterances, args.min_len, args.max_len,
                             reversal_fraction=args.reversal_fraction,
                             seed=args.seed)
    out = Path(args.out)
    save_corpus(out, corpus)
    task = {"alphabet": spec.alphabet,
            "frames_per_symbol": spec.frames_per_symbol,
            "feat_dim": spec.feat_dim, "noise_sigma": spec.noise_sigma,
            "cipher_shift": spec.cipher_shift, "seed": spec.seed}
    (out / "task.json").write_text(json.dumps(task, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    total = sum(u.n_frames for u in corpus)
    print("wrote %d utterances (%d frames) to %s" % (len(corpus), total, out))
    return 0


# ---------------------------------------------------------------------------
# training and offline translation


def _examples_of(corpus) -> list:
    """Training examples; an utterance is reversed-order when its word
    alignment has a pair off the diagonal."""
    reordered = {a.utt_id for a in corpus.alignments if any(i != t for i, t in a.pairs)}
    return [_Example(i, corpus.features[i], corpus.targets[i], i in reordered)
            for i in corpus.ids]


def _derive_vocab(corpus) -> str:
    return "".join(sorted({ch for text in corpus.targets.values() for ch in text}))


def _cmd_train(args) -> int:
    corpus = load_corpus(args.data)
    first = corpus.features[corpus.ids[0]]
    cfg = ModelConfig(feat_dim=first.shape[1],
                      vgg_channels=tuple(args.vgg_channels),
                      enc_layers=args.enc_layers, hidden=args.hidden,
                      bidirectional=args.bidirectional, attn_dim=args.attn_dim,
                      embed_dim=args.embed_dim, vocab=_derive_vocab(corpus))
    params = create_parameters(cfg, seed=args.seed)
    tcfg = TrainConfig(epochs=args.epochs, lr=args.lr, momentum=args.momentum,
                       grad_clip=args.grad_clip, batch_size=args.batch_size,
                       optimizer=args.optimizer, guide_epochs=args.guide_epochs,
                       guide_weight=args.guide_weight,
                       seed=args.seed, holdout_fraction=args.holdout_fraction)

    def show(report):
        print("epoch %d  loss/token %.4f  holdout BLEU %.4f"
              % (report.epoch, report.mean_loss, report.holdout_bleu))

    train(params, cfg, _examples_of(corpus), tcfg, on_epoch=show)
    save_checkpoint(args.model, cfg, params)
    print("saved model to %s" % args.model)
    return 0


def _cmd_translate(args) -> int:
    cfg, params = load_checkpoint(args.model)
    corpus = load_corpus(args.data)
    hyps = []
    for utt_id in corpus.ids:
        hyps.append(offline_translate(corpus.features[utt_id], params, cfg))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            for utt_id, hyp in zip(corpus.ids, hyps):
                f.write("%s\t%s\n" % (utt_id, hyp))
    refs = [corpus.targets[i] for i in corpus.ids]
    score = bleu(hyps, refs, tokenize=args.tokenize)
    print("BLEU %.6f over %d utterances" % (score, len(hyps)))
    return 0


# ---------------------------------------------------------------------------
# simulation sweeps


def _parse_bounds(cells) -> list:
    out = []
    for cell in cells:
        try:
            low, high = cell.split(":")
            out.append((int(low), int(high)))
        except ValueError:
            raise ConfigError("bounds must look like low:high, got %r" % (cell,)) from None
    return out


def _sweep_jobs(args) -> list:
    """Cartesian grid of simulation configurations."""
    jobs = []
    for strategy in args.strategy:
        for n in args.write_tokens:
            if args.segmentation == "fixed":
                jobs.extend({"strategy": strategy, "k": k, "s": s, "N": n,
                             "segmentation": "fixed"}
                            for k in args.k for s in args.s)
            elif args.segmentation == "words":
                jobs.extend({"strategy": strategy, "k": k, "s": 0, "N": n,
                             "segmentation": "words"}
                            for k in args.k)
            else:
                jobs.extend({"strategy": strategy, "k": low, "s": high, "N": n,
                             "segmentation": "random"}
                            for low, high in _parse_bounds(args.bounds))
    if not jobs:
        raise ConfigError("empty sweep grid")
    return jobs


def _build_plan(job: dict, total_frames: int, spans, seed: int, utt_id: str):
    seg = job["segmentation"]
    if seg == "fixed":
        return fixed_plan(total_frames, job["k"], job["s"], utt_id)
    if seg == "words":
        if spans is None:
            raise ConfigError("word segmentation needs boundaries for %r" % (utt_id,))
        return oracle_word_plan(total_frames, spans, job["k"], utt_id)
    return random_plan(total_frames, job["k"], job["s"], seed, utt_id)


_POOL: dict = {}


def _pool_init(cfg, params, frame_ms):
    _POOL.update(cfg=cfg, params=params, frame_ms=frame_ms)


def _pool_run(task):
    job, utt_id, frames, spans, seed = task
    plan = _build_plan(job, len(frames), spans, seed, utt_id)
    policy = DecodePolicy(write_tokens=job["N"])
    return simulate(frames, plan, policy, _POOL["params"], _POOL["cfg"],
                    job["strategy"], _POOL["frame_ms"])


def _trace_name(job: dict) -> str:
    return "trace_%s_%s_k%d_s%d_N%d.jsonl" % (
        job["strategy"], job["segmentation"], job["k"], job["s"], job["N"])


def run_sweep(jobs: list, corpus, params, cfg, out_dir, seed: int = 0,
              frame_ms: float = FRAME_MS, tokenize: str = "word",
              workers: int = 1) -> list:
    """Simulate every job over the corpus; write traces, index, and table.

    Returns the aggregated trade-off rows, computed from the trace files
    through the reader `report` uses, so a report rebuilds them.  Utterances
    parallelize across processes when workers > 1; results keep corpus
    order either way.  A configuration listed twice is rejected, since both
    would write the same trace file.
    """
    names = [_trace_name(job) for job in jobs]
    for j, job in enumerate(jobs):
        if names[j] in names[:j]:
            raise ConfigError("sweep lists the configuration %(strategy)s %(segmentation)s "
                              "k=%(k)d s=%(s)d N=%(N)d twice" % job)
    runs = len(jobs) * len(corpus.ids)
    if runs > MAX_SWEEP_RUNS:
        raise ConfigError("sweep would run %d simulations; the guard allows %d"
                          % (runs, MAX_SWEEP_RUNS))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks_of = {}
    for j, job in enumerate(jobs):
        tasks_of[j] = [(job, utt_id, corpus.features[utt_id],
                        corpus.word_spans.get(utt_id), seed + 9973 * j + i)
                       for i, utt_id in enumerate(corpus.ids)]
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(cfg, params, frame_ms)) as pool:
            for j, job in enumerate(jobs):
                results.append((job, list(pool.map(_pool_run, tasks_of[j]))))
    else:
        _pool_init(cfg, params, frame_ms)
        for j, job in enumerate(jobs):
            results.append((job, [_pool_run(t) for t in tasks_of[j]]))
    index = []
    for (job, traces), name in zip(results, names):
        write_traces(out / name, traces)
        index.append({**job, "trace": name, "utterances": len(traces)})
    sweep = {"frame_ms": frame_ms, "tokenize": tokenize, "seed": seed,
             "jobs": index}
    (out / "sweep.json").write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    rows = tradeoff_table(_read_sweep(out)[1], corpus.targets, tokenize=tokenize)
    write_tradeoff_csv(out / "tradeoff.csv", rows)
    return rows


def _cmd_simulate(args) -> int:
    cfg, params = load_checkpoint(args.model)
    corpus = load_corpus(args.data)
    jobs = _sweep_jobs(args)
    rows = run_sweep(jobs, corpus, params, cfg, args.out, seed=args.seed,
                     frame_ms=args.frame_ms, tokenize=args.tokenize,
                     workers=args.workers)
    print("ran %d configurations over %d utterances; table at %s"
          % (len(jobs), len(corpus.ids), Path(args.out) / "tradeoff.csv"))
    for row in rows:
        print("  %s %s k=%d s=%d N=%d  BLEU %.4f  AL %.1f ms"
              % (row.strategy, row.segmentation, row.k, row.s, row.n_tokens,
                 row.bleu, row.al_ms))
    return 0


# ---------------------------------------------------------------------------
# benchmarking


@dataclass(frozen=True)
class BenchResult:
    strategy: str
    frames_processed: int
    mean_wall_ns: float      # mean over repetitions, one utterance per run
    ratio: float             # mean wall relative to the bidirectional baseline


BENCH_BASELINE = "blstm-reencode"


def benchmark_decoding(t_frames: int = 2000, k: int = 100, s: int = 10,
                       reps: int = 20, seed: int = 0) -> list:
    """Time full online decoding of one long utterance per strategy.

    Runs on a small freshly initialized model in this single thread; the
    interesting quantity is the wall-clock ratio between strategies, which
    reflects encoder arithmetic rather than model quality.  The write side
    is capped at 40 tokens, but the model seed decides the decoder's share.
    With seed 0, the default, end-of-sequence is proposed and suppressed at
    each of the 191 reads, nothing is written, and decoding takes about a
    quarter of an overlap utterance and 2-4% of a re-encoding one.  Seeds 1
    and 2 write 40 tokens and stop.
    """
    if reps < 1:
        raise ConfigError("need at least one repetition")
    dims = dict(feat_dim=8, vgg_channels=(2, 2), enc_layers=1, hidden=8,
                attn_dim=8, embed_dim=8, vocab="AB")
    setups = {}
    for strategy in STRATEGIES:
        cfg = ModelConfig(bidirectional=strategy.startswith("blstm"), **dims)
        setups[strategy] = (cfg, create_parameters(cfg, seed=seed))
    frames = np.random.default_rng(seed).standard_normal(
        (t_frames, dims["feat_dim"])).astype(np.float32)
    policy = DecodePolicy(write_tokens=1, max_target_factor=0.0,
                          max_target_slack=40)
    walls: dict = {strategy: [] for strategy in STRATEGIES}
    counts: dict = {}
    for _ in range(reps):
        for strategy in STRATEGIES:
            cfg, params = setups[strategy]
            plan = fixed_plan(t_frames, k, s, "bench")
            begin = time.perf_counter_ns()
            trace = simulate(frames, plan, policy, params, cfg, strategy)
            walls[strategy].append(time.perf_counter_ns() - begin)
            previous = counts.setdefault(strategy, trace.cost.frames_processed)
            if previous != trace.cost.frames_processed:
                raise ConfigError("frame accounting changed between repetitions")
    base = statistics.mean(walls[BENCH_BASELINE])
    return [BenchResult(strategy=strategy,
                        frames_processed=counts[strategy],
                        mean_wall_ns=statistics.mean(walls[strategy]),
                        ratio=statistics.mean(walls[strategy]) / base)
            for strategy in STRATEGIES]


def _cmd_bench(args) -> int:
    results = benchmark_decoding(t_frames=args.frames, k=args.k, s=args.s,
                                 reps=args.reps, seed=args.seed)
    print("%-16s %16s %16s %8s" % ("strategy", "frames_processed",
                                   "mean_wall_ms", "ratio"))
    for r in results:
        print("%-16s %16d %16.2f %8.3f"
              % (r.strategy, r.frames_processed, r.mean_wall_ns / 1e6, r.ratio))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("strategy,frames_processed,mean_wall_per_utt_ns,ratio_vs_%s\n"
                    % BENCH_BASELINE.split("-")[0])
            for r in results:
                f.write("%s,%d,%.1f,%.6f\n" % (r.strategy, r.frames_processed,
                                               r.mean_wall_ns, r.ratio))
        print("wrote %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# reports


def _read_sweep(sweep_dir):
    """The sweep index and (config, trace records) per job; a trace file
    holding another number of utterances than the index records is
    rejected."""
    root = Path(sweep_dir)
    path = root / "sweep.json"
    if not path.exists():
        raise ConfigError("no sweep index at %s" % path)
    sweep = json.loads(path.read_text(encoding="utf-8"))
    results = []
    for entry in sweep["jobs"]:
        config = {key: entry[key] for key in ("strategy", "k", "s", "N",
                                              "segmentation")}
        trace = root / entry["trace"]
        records = read_traces(trace)
        if len(records) != entry["utterances"]:
            raise ConfigError("%s holds %d utterances, sweep.json records %d"
                              % (trace, len(records), entry["utterances"]))
        results.append((config, records))
    return sweep, results


def _subset_rows(results: list, keep: set, references: dict, tokenize: str) -> list:
    narrowed = [(config, [t for t in traces if t.utt_id in keep])
                for config, traces in results]
    return tradeoff_table(narrowed, references, tokenize=tokenize)


def _cmd_report(args) -> int:
    sweep, results = _read_sweep(args.sweep)
    corpus = load_corpus(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tokenize = args.tokenize or sweep.get("tokenize", "word")

    rows = tradeoff_table(results, corpus.targets, tokenize=tokenize)
    write_tradeoff_csv(out / "curves.csv", rows)

    with open(out / "per_utterance.jsonl", "w", encoding="utf-8") as f:
        for config, traces in results:
            for tr in traces:
                ref = corpus.targets.get(tr.utt_id)
                lag = None if ref is None else utterance_lagging(tr, ref, tokenize)
                f.write(json.dumps({"config": config, "utt": tr.utt_id,
                                    "hyp": tr.hypothesis, "al_ms": lag,
                                    "frames_processed": tr.frames_processed,
                                    "wall_ns": tr.wall_ns}) + "\n")

    written = [str(out / "curves.csv"), str(out / "per_utterance.jsonl")]
    if corpus.alignments:
        scores = [lagging_difficulty(a) for a in corpus.alignments]
        with open(out / "difficulty.csv", "w", encoding="utf-8") as f:
            f.write("utt_id,difficulty,cutoff\n")
            for sc in scores:
                f.write("%s,%.6f,%d\n" % (sc.utt_id, sc.value, sc.tau))
        written.append(str(out / "difficulty.csv"))
        if args.subset_size:
            hardest, easiest = extract_subsets(scores, args.subset_size)
            for label, ids in (("hardest", hardest), ("easiest", easiest)):
                (out / ("subset_%s.txt" % label)).write_text(
                    "".join(i + "\n" for i in ids), encoding="utf-8")
                write_tradeoff_csv(out / ("curves_%s.csv" % label),
                                   _subset_rows(results, set(ids),
                                                corpus.targets, tokenize))
                written.append(str(out / ("curves_%s.csv" % label)))
    print("wrote %s" % ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_config_flag(sub):
    sub.add_argument("--config", metavar="FILE",
                     help="JSON object of defaults; explicit flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamst",
        description="Low-latency end-to-end speech translation sandbox")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details")
    commands = parser.add_subparsers(dest="command", required=True)
    parser.sub_commands = {}

    def subparser(name, **kwargs):
        sub = commands.add_parser(name, **kwargs)
        parser.sub_commands[name] = sub
        return sub

    p = subparser("generate", help="write a synthetic corpus")
    _add_config_flag(p)
    p.add_argument("--out", required=True, help="corpus directory to create")
    p.add_argument("--utterances", type=int, default=200)
    p.add_argument("--min-len", type=int, default=5)
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--reversal-fraction", type=float, default=0.0,
                   help="fraction of utterances with reversed target word order")
    p.add_argument("--seed", type=int, default=0, help="corpus sampling seed")
    p.add_argument("--task-seed", type=int, default=0,
                   help="seed fixing the per-symbol feature vectors")
    p.add_argument("--frames-per-symbol", type=int, default=8)
    p.add_argument("--feat-dim", type=int, default=16)
    p.add_argument("--feature-scale", type=float, default=6.0)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--cipher-shift", type=int, default=3)
    p.set_defaults(run=_cmd_generate)

    p = subparser("train", help="train a model on a corpus")
    _add_config_flag(p)
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--model", required=True, help="checkpoint file to write")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--grad-clip", type=float, default=1.0)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="momentum")
    p.add_argument("--guide-epochs", type=int, default=0,
                   help="initial epochs with the diagonal attention guide")
    p.add_argument("--guide-weight", type=float, default=0.5)
    p.add_argument("--holdout-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--attn-dim", type=int, default=32)
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--enc-layers", type=int, default=2)
    p.add_argument("--vgg-channels", type=int, nargs=2, default=[4, 8])
    p.add_argument("--bidirectional", action="store_true",
                   help="bidirectional encoder (offline and re-encode only)")
    p.set_defaults(run=_cmd_train)

    p = subparser("translate", help="decode a corpus offline")
    _add_config_flag(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="hypotheses file (id<TAB>text)")
    p.add_argument("--tokenize", choices=("word", "char"), default="word")
    p.set_defaults(run=_cmd_translate)

    p = subparser("simulate", help="run an online decoding sweep")
    _add_config_flag(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="directory for traces and tables")
    p.add_argument("--strategy", nargs="+", choices=STRATEGIES,
                   default=["ulstm-reencode"])
    p.add_argument("--segmentation", choices=SEGMENTATIONS, default="fixed")
    p.add_argument("--k", type=int, nargs="+", default=[100],
                   help="frames before the first write")
    p.add_argument("--s", type=int, nargs="+", default=[10],
                   help="frames per later read (fixed segmentation)")
    p.add_argument("--write-tokens", type=int, nargs="+", default=[1],
                   help="token budget per write")
    p.add_argument("--bounds", nargs="+", default=["5:10"],
                   help="low:high chunk sizes (random segmentation)")
    p.add_argument("--tokenize", choices=("word", "char"), default="word")
    p.add_argument("--frame-ms", type=float, default=FRAME_MS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the sweep (1 = run inline)")
    p.set_defaults(run=_cmd_simulate)

    p = subparser("bench", help="time online decoding per strategy",
                  description="A quick mean per strategy.  BLAS threads follow the "
                  "environment set before launch, for example OMP_NUM_THREADS=1 streamst "
                  "bench.  For careful numbers (BLAS pinned, medians over timed rounds, "
                  "checked outputs, per-layer traces) run perfbench/run.py from a checkout.")
    _add_config_flag(p)
    p.add_argument("--frames", type=int, default=2000)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--s", type=int, default=10)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(run=_cmd_bench)

    p = subparser("report", help="build tables from sweep traces")
    _add_config_flag(p)
    p.add_argument("--sweep", required=True, help="directory with sweep output")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="directory for report files")
    p.add_argument("--subset-size", type=int, default=0,
                   help="emit hardest/easiest subset curves of this size")
    p.add_argument("--tokenize", choices=("word", "char"))
    p.set_defaults(run=_cmd_report)

    return parser


def _apply_config_file(parser, argv):
    """Let a JSON file supply defaults while explicit flags keep priority."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("command", nargs="?")
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    path = Path(known.config)
    if not path.exists():
        raise ConfigError("no config file at %s" % path)
    try:
        values = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid json: %s" % (path, e)) from None
    if not isinstance(values, dict):
        raise ConfigError("config %s must hold a json object" % path)
    sub = parser.sub_commands.get(known.command)
    if sub is None:
        raise ConfigError("--config needs a known subcommand, got %r"
                          % (known.command,))
    dests = {a.dest for a in sub._actions}
    unknown = sorted(set(values) - dests)
    if unknown:
        raise ConfigError("config %s has unknown keys: %s"
                          % (path, ", ".join(unknown)))
    sub.set_defaults(**values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        return args.run(args)
    except (ValueError, RuntimeError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
