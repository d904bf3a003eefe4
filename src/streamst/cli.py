"""Command line harness: corpus generation, training, offline translation,
online simulation sweeps, decoding benchmarks, and report building.

Every command accepts ``--config FILE`` (a JSON object of flag defaults);
explicit flags override the file.  All randomness flows from explicit seeds,
so a repeated run reproduces every output byte except wall-clock columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .decoder import DecodePolicy, offline_translate, read_traces, simulate, write_traces
from .encoding import STRATEGIES, check_strategy
from .errors import ConfigError, ContractError, parse_json, read_text, typed_field
from .metrics import (CONFIG_FIELDS, TOKENIZE_MODES, bleu, check_tokenize, extract_subsets,
                      lagging_difficulty, tradeoff_table, utterance_lagging, write_tradeoff_csv)
from .model import ModelConfig, create_parameters, load_checkpoint, save_checkpoint
from .segmentation import fixed_plan, oracle_word_plan, random_plan
from .synthetic import SyntheticSpec, generate_corpus, load_corpus, save_corpus, write_rows
from .training import OPTIMIZERS, TrainConfig, train

MAX_SWEEP_RUNS = 10_000

SEGMENTATIONS = ("fixed", "words", "random")
_LABEL = "%(strategy)s %(segmentation)s k=%(k)d s=%(s)d N=%(N)d"  # a configuration in messages
_TRACE_NAME = "trace_%(strategy)s_%(segmentation)s_k%(k)d_s%(s)d_N%(N)d.jsonl"


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
    (out / "task.json").write_text(json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    total = sum(u.n_frames for u in corpus)
    print("wrote %d utterances (%d frames) to %s" % (len(corpus), total, out))
    return 0


# ---------------------------------------------------------------------------
# training and offline translation


def _examples_of(corpus) -> list:
    """Training examples; an utterance is reversed-order when its word
    alignment is reordered."""
    reordered = {a.utt_id for a in corpus.alignments if a.reordered}
    return [_Example(i, corpus.features[i], corpus.targets[i], i in reordered)
            for i in corpus.ids]


def _derive_vocab(corpus) -> str:
    return "".join(sorted({ch for text in corpus.targets.values() for ch in text}))


def _cmd_train(args) -> int:
    corpus = load_corpus(args.data)
    if not corpus.ids:
        raise ConfigError("corpus %s holds no utterances to train on" % args.data)
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
        print("epoch %d  loss/token %.4f  holdout BLEU %.4f  truncated %d"
              % (report.epoch, report.mean_loss, report.holdout_bleu, report.holdout_truncated))

    train(params, cfg, _examples_of(corpus), tcfg, on_epoch=show)
    save_checkpoint(args.model, cfg, params)
    print("saved model to %s" % args.model)
    return 0


def _cmd_translate(args) -> int:
    cfg, params = load_checkpoint(args.model)
    corpus = load_corpus(args.data)
    hyps = []
    for utt_id in corpus.ids:
        hyps.append(offline_translate(corpus.features[utt_id], params, cfg, utt_id=utt_id))
    if args.out:
        write_rows(args.out, zip(corpus.ids, hyps))
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
    if args.segmentation == "fixed":
        grid = [(k, s) for k in args.k for s in args.s]
    elif args.segmentation == "words":
        grid = [(k, 0) for k in args.k]
    else:
        grid = _parse_bounds(args.bounds)
    jobs = [{"strategy": strategy, "k": k, "s": s, "N": n, "segmentation": args.segmentation}
            for strategy in args.strategy for n in args.write_tokens for k, s in grid]
    if not jobs:
        raise ConfigError("empty sweep grid")
    return jobs


def _config(entry, where: str) -> dict:
    """The CONFIG_FIELDS of a sweep job or sweep.json entry, each of its type."""
    return {key: typed_field(entry, key, (kind,), where) for key, kind in CONFIG_FIELDS}


def _build_plan(config: dict, total_frames: int, spans, seed: int, utt_id: str):
    seg = config["segmentation"]
    if seg == "fixed":
        return fixed_plan(total_frames, config["k"], config["s"], utt_id)
    if seg == "words":
        if spans is None:
            raise ConfigError("word segmentation needs boundaries for %r" % (utt_id,))
        return oracle_word_plan(total_frames, spans, config["k"], utt_id)
    if seg == "random":
        return random_plan(total_frames, config["k"], config["s"], seed, utt_id)
    raise ContractError("run_sweep admits no segmentation %r" % (seg,))


_POOL: dict = {}


def _pool_init(cfg, params):
    _POOL.update(cfg=cfg, params=params)


def _pool_run(task):
    frames, plan, policy, strategy = task
    return simulate(frames, plan, policy, _POOL["params"], _POOL["cfg"], strategy)


def run_sweep(jobs: list, corpus, params, cfg, out_dir, seed: int = 0,
              tokenize: str = "word", workers: int = 1) -> list:
    """Simulate every job over the corpus; write traces, index, and table.

    Returns the aggregated trade-off rows, computed from the traces in
    memory; read_traces gives back exactly these records, so a report
    rebuilds the rows from the files.  Simulations parallelize across
    processes when workers > 1; results keep job and corpus order either
    way.  Nothing is written unless the corpus holds an utterance, each job
    holds the CONFIG_FIELDS with their types, a known segmentation (s = 0
    for words), a strategy the model runs, N >= 1 and a configuration no
    other job has (both would write one trace file), every plan can be
    built, tokenize is valid, workers >= 1, and every simulation completes.
    """
    check_tokenize(tokenize)
    if workers < 1:
        raise ConfigError("workers must be at least 1, got %r" % (workers,))
    if not corpus.ids:
        raise ConfigError("sweep needs a corpus with at least one utterance")
    configs = [_config(job, "sweep job %d" % j) for j, job in enumerate(jobs)]
    names = [_TRACE_NAME % config for config in configs]
    for j, config in enumerate(configs):
        for key, known in (("strategy", STRATEGIES), ("segmentation", SEGMENTATIONS)):
            if config[key] not in known:
                raise ConfigError("sweep job %d %r has unknown %s %r; known: %s"
                                  % (j, config, key, config[key], ", ".join(known)))
        if config["segmentation"] == "words" and config["s"] != 0:
            raise ConfigError("sweep job %d %r: word segmentation reads no stride, s must be 0"
                              % (j, config))
        if names[j] in names[:j]:
            raise ConfigError("sweep lists the configuration %s twice" % (_LABEL % config))
        check_strategy(config["strategy"], cfg)
    runs = len(jobs) * len(corpus.ids)
    if runs > MAX_SWEEP_RUNS:
        raise ConfigError("sweep would run %d simulations; the guard allows %d"
                          % (runs, MAX_SWEEP_RUNS))
    tasks = [(corpus.features[utt_id],
              _build_plan(config, len(corpus.features[utt_id]), corpus.word_spans.get(utt_id),
                          seed + 9973 * j + i, utt_id),
              DecodePolicy(write_tokens=config["N"]), config["strategy"])
             for j, config in enumerate(configs) for i, utt_id in enumerate(corpus.ids)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(cfg, params)) as pool:
            traces = list(pool.map(_pool_run, tasks))
    else:
        _pool_init(cfg, params)
        traces = list(map(_pool_run, tasks))
    n = len(corpus.ids)
    results = [(config, traces[j * n:(j + 1) * n]) for j, config in enumerate(configs)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (config, records), name in zip(results, names):
        write_traces(out / name, records)
    index = [{**config, "trace": name, "utterances": n} for config, name in zip(configs, names)]
    sweep = {"tokenize": tokenize, "seed": seed, "jobs": index}
    (out / "sweep.json").write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    rows = tradeoff_table(results, corpus.targets, tokenize=tokenize)
    write_tradeoff_csv(out / "tradeoff.csv", rows)
    return rows


def _cmd_simulate(args) -> int:
    cfg, params = load_checkpoint(args.model)
    corpus = load_corpus(args.data)
    jobs = _sweep_jobs(args)
    rows = run_sweep(jobs, corpus, params, cfg, args.out, seed=args.seed,
                     tokenize=args.tokenize, workers=args.workers)
    print("ran %d configurations over %d utterances; table at %s"
          % (len(jobs), len(corpus.ids), Path(args.out) / "tradeoff.csv"))
    for row in rows:
        print("  %s  BLEU %.4f  AL %.1f ms  truncated %d"
              % (_LABEL % row.config, row.bleu, row.al_ms, row.truncated))
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
    third of an overlap utterance and 3-6% of a re-encoding one.  Seeds 1
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
    """The sweep index and (config, trace records) per job.  A malformed
    entry, a trace that is not a file name inside the sweep directory, and
    a trace file holding another number of utterances than the index
    records are rejected."""
    root = Path(sweep_dir)
    path = root / "sweep.json"
    sweep = parse_json(read_text(path), path)
    check_tokenize(typed_field(sweep, "tokenize", (str,), path), "%s: tokenize" % path)
    results = []
    for i, entry in enumerate(typed_field(sweep, "jobs", (list,), path)):
        where = "%s jobs[%d]" % (path, i)
        config = _config(entry, where)
        name = typed_field(entry, "trace", (str,), where)
        if name in ("", "..") or Path(name).name != name:
            raise ConfigError("%s: trace %r is not a file name in %s" % (where, name, root))
        trace = root / name
        records = read_traces(trace)
        if len(records) != typed_field(entry, "utterances", (int,), where):
            raise ConfigError("%s holds %d utterances, sweep.json records %d"
                              % (trace, len(records), entry["utterances"]))
        results.append((config, records))
    return sweep, results


def _subset_rows(results: list, keep: set, references: dict, tokenize: str) -> list:
    narrowed = [(config, [t for t in traces if t.utt_id in keep])
                for config, traces in results]
    return tradeoff_table(narrowed, references, tokenize=tokenize)


def _cmd_report(args) -> int:
    """Every table is computed before the output directory is made, so a
    refused report writes nothing.  Subsets are drawn from the utterances
    that every configuration traced."""
    sweep, results = _read_sweep(args.sweep)
    corpus = load_corpus(args.data)
    tokenize = args.tokenize or sweep["tokenize"]
    rows = tradeoff_table(results, corpus.targets, tokenize=tokenize)
    scores = [lagging_difficulty(a) for a in corpus.alignments]
    subsets = []
    if args.subset_size:
        if not scores:
            raise ConfigError("--subset-size needs a corpus with alignments.txt")
        traced = [{tr.utt_id for tr in traces} for _, traces in results]
        common = set.intersection(*traced) if traced else set()
        hardest, easiest = extract_subsets([sc for sc in scores if sc.utt_id in common],
                                           args.subset_size)
        subsets = [(label, ids, _subset_rows(results, set(ids), corpus.targets, tokenize))
                   for label, ids in (("hardest", hardest), ("easiest", easiest))]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tradeoff_csv(out / "curves.csv", rows)
    with open(out / "per_utterance.jsonl", "w", encoding="utf-8") as f:
        for config, traces in results:
            for tr in traces:
                lag = utterance_lagging(tr, corpus.targets[tr.utt_id], tokenize)
                f.write(json.dumps({"config": config, "utt": tr.utt_id,
                                    "hyp": tr.hypothesis, "al_ms": lag,
                                    "frames_processed": tr.cost.frames_processed,
                                    "wall_ns": tr.cost.wall_ns, "chunks": tr.cost.chunks,
                                    "truncated": tr.truncated,
                                    "suppressed_eos": tr.suppressed_eos}) + "\n")
    written = [str(out / "curves.csv"), str(out / "per_utterance.jsonl")]
    if scores:
        with open(out / "difficulty.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["utt_id", "difficulty", "cutoff"])
            w.writerows([sc.utt_id, "%.6f" % sc.value, sc.tau] for sc in scores)
        written.append(str(out / "difficulty.csv"))
    for label, ids, subset_rows in subsets:
        (out / ("subset_%s.txt" % label)).write_text("".join(i + "\n" for i in ids),
                                                    encoding="utf-8")
        write_tradeoff_csv(out / ("curves_%s.csv" % label), subset_rows)
        written.append(str(out / ("curves_%s.csv" % label)))
    print("wrote %s" % ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamst",
        description="Low-latency end-to-end speech translation sandbox")
    commands = parser.add_subparsers(dest="command", required=True)
    parser.sub_commands = {}

    def subparser(name, **kwargs):
        sub = commands.add_parser(name, **kwargs)
        sub.add_argument("--config", metavar="FILE",
                         help="JSON object of defaults; explicit flags override it")
        parser.sub_commands[name] = sub
        return sub

    p = subparser("generate", help="write a synthetic corpus")
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
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="hypotheses file (id<TAB>text)")
    p.add_argument("--tokenize", choices=TOKENIZE_MODES, default="word")
    p.set_defaults(run=_cmd_translate)

    p = subparser("simulate", help="run an online decoding sweep")
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
    p.add_argument("--tokenize", choices=TOKENIZE_MODES, default="word")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the sweep (1 = run inline)")
    p.set_defaults(run=_cmd_simulate)

    p = subparser("bench", help="time online decoding per strategy",
                  description="A quick mean per strategy.  BLAS threads follow the "
                  "environment set before launch, for example OMP_NUM_THREADS=1 streamst "
                  "bench.  For careful numbers (BLAS pinned, medians over timed rounds, "
                  "checked outputs, per-layer traces) run perfbench/run.py from a checkout.")
    p.add_argument("--frames", type=int, default=2000)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--s", type=int, default=10)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(run=_cmd_bench)

    p = subparser("report", help="build tables from sweep traces")
    p.add_argument("--sweep", required=True, help="directory with sweep output")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="directory for report files")
    p.add_argument("--subset-size", type=int, default=0,
                   help="emit hardest/easiest subset curves of this size")
    p.add_argument("--tokenize", choices=TOKENIZE_MODES)
    p.set_defaults(run=_cmd_report)

    return parser


def _config_words(action, value):
    """The command-line words that set action to a config file's value."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise argparse.ArgumentError(None, "must be true or false, got %r" % (value,))
        return [flag] if value else []
    items = value if isinstance(value, list) and action.nargs is not None else [value]
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in items):
        raise argparse.ArgumentError(None, "must be a string or a number%s, got %r"
                                     % ("" if action.nargs is None else " or a list of them",
                                        value))
    return ["%s=%s" % (flag, value)] if action.nargs is None else [flag] + [str(v) for v in items]


def _apply_config_file(argv):
    """argv with a JSON file's values as flags after the subcommand, where
    the parser converts and checks them as it does typed flags, and the
    explicit flags that follow win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("command", nargs="?")
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    path = known.config
    values = parse_json(read_text(path), path)
    if not isinstance(values, dict):
        raise ConfigError("config %s must hold a json object" % path)
    # a parser of the subcommand that raises, and requires no option, checks
    # one key's flags at a time so that a refusal can name the key
    check = build_parser().sub_commands.get(known.command)
    if check is None:
        raise ConfigError("--config needs a known subcommand, got %r"
                          % (known.command,))
    check.exit_on_error = False
    for action in check._actions:
        action.required = False
    actions = {a.dest: a for a in check._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ConfigError("config %s has unknown keys: %s"
                          % (path, ", ".join(unknown)))
    tokens = []
    for key, value in values.items():
        try:
            words = _config_words(actions[key], value)
            _, extra = check.parse_known_args(words)
            if extra:
                raise argparse.ArgumentError(None, "unexpected values %s" % " ".join(extra))
        except argparse.ArgumentError as e:
            raise ConfigError("config %s: %s: %s" % (path, key, e.message)) from None
        tokens += words
    at = argv.index(known.command) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config_file(argv))
        return args.run(args)
    except (ValueError, RuntimeError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
