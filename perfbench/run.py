"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload stream-long --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` seconds of
whole rounds and reports the end-to-end metrics.  With ``--trace 1`` every
workload runs with the layer boundaries patched, for a third of
``--seconds`` each (at least one round), and the per-layer metrics of all
three are reported, so that each traced run covers every layer.  Outputs
are checked after the timed rounds.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
run manifest and the raw samples go to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import pin  # noqa: E402

pin.pin_threads_and_path()

import numpy as np  # noqa: E402

import streamst  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
OUT = w.HERE / "out"
SETUP_REPEATS = 3


def blas_threads():
    """(threads OpenBLAS runs with, its config string), read from the
    library numpy loaded; (None, None) where that library is not OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, "%s_get_num_threads%s" % (prefix, suffix), None)
                conf = getattr(lib, "%s_get_config%s" % (prefix, suffix), None)
                if get is not None and conf is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    conf.restype, conf.argtypes = ctypes.c_char_p, []
                    return get(), conf().decode()
    return None, None


def git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    git = pin.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args) -> dict:
    threads, config = blas_threads()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "streamst": streamst.__version__, "git_rev": git_rev(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": config},
        "blas_threads_in_force": threads,
        "thread_env": {var: os.environ.get(var) for var in pin.THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_rounds(wl, seconds: float, counts: Counts) -> list:
    """Whole rounds for about the given time: at least one, and no round
    that would end more than half a round past it.  A round that raises
    counts all its operations as failed."""
    outputs = []
    begin = time.perf_counter()
    for done in itertools.count(1):
        counts.attempted += wl.ops_per_round
        try:
            outputs.append(wl.round())
        except Exception:  # an operation of the program failed; keep measuring
            counts.failed += wl.ops_per_round
            traceback.print_exc()
        elapsed = time.perf_counter() - begin
        if elapsed * (1 + 0.5 / done) >= seconds:
            return outputs


def untraced(args, counts: Counts, record: dict) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        wl = w.WORKLOADS[args.workload](args.seed, OUT)
        setups.append(time.perf_counter() - begin)
    wl.warm()
    outputs = run_rounds(wl, args.seconds, counts)
    for out in outputs:
        wl.check(out)
    record.update(setup_repeats_s=setups, import_s=IMPORT_S,
                  samples_ns=wl.samples_ns, summary=wl.summary())
    return {"setup_s": (IMPORT_S + statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "utt_ms": (wl.utt_ms(), "ms")}


def traced_workload(name: str, args, counts: Counts) -> dict:
    rec = tracing.Recorder()
    rec.install()
    try:
        wl = w.WORKLOADS[name](args.seed, OUT)
        setup_ms = {key: rec.ms(key) for key in ("synthetic.generate_corpus",
                                                 "synthetic.load_corpus")}
        wl.warm()
        rec.reset()
        outputs = run_rounds(wl, args.seconds / len(w.WORKLOADS), counts)
    finally:
        rec.unpatch()
    for out in outputs:
        wl.check(out)
    rec.write_spans(OUT / ("spans-%s.jsonl" % name))
    metrics = layer_metrics(name, rec)
    for key, ms in setup_ms.items():
        if ms:
            metrics["%s.%s.ms" % (name, key)] = (ms, "ms")
    return metrics


def layer_metrics(name: str, rec) -> dict:
    out = {}
    strategies = (w.STRATEGIES if name == "stream-long"
                  else ("ulstm-reencode", "ulstm-overlap") if name == "sweep" else ())
    for strategy in strategies:
        out.update(tracing.strategy_metrics(rec, strategy))
    if strategies:
        plans = rec.n_calls("segmentation.plan")
        out["segmentation.plan.ms"] = (rec.ms("segmentation.plan") / plans, "ms")
        out["segmentation.reads"] = (rec.counter("segmentation.reads") / plans, "reads")
    if name == "sweep":
        sweeps = rec.n_calls("cli.run_sweep")
        for key in ("cli.run_sweep", "cli.write_traces"):
            out[key + ".ms"] = (rec.ms(key) / sweeps, "ms")
        out["metrics.tradeoff_table.ms"] = (rec.ms("metrics.tradeoff_table") / sweeps, "ms")
        out["cli.trace_bytes"] = (rec.counter("cli.trace_bytes") / sweeps, "bytes")
    if name == "train":
        steps = rec.n_calls("training.utterance_loss")
        loss_ms = rec.ms("training.utterance_loss")
        backward_ms = rec.ms("autodiff.backward")
        train_ms = rec.ms("training.train")
        out.update({
            "training.train.ms": (train_ms / steps, "ms"),
            "training.utterance_loss.ms": (loss_ms / steps, "ms"),
            "training.update.ms": ((train_ms - loss_ms - backward_ms) / steps, "ms"),
            "autodiff.backward.ms": (backward_ms / steps, "ms"),
            "autodiff.tape_ops": (rec.counter("autodiff.tape_ops") / steps, "ops"),
            "model.vgg_forward.ms": (rec.ms("model.vgg_forward") / steps, "ms"),
            "model.encoder_forward.ms": (rec.ms("model.encoder_forward") / steps, "ms"),
            "model.decode_step.ms": (rec.ms("model.decode_step") / steps, "ms"),
            "model.decode_step.calls": (rec.n_calls("model.decode_step") / steps, "calls"),
            "autodiff.conv2d.ms": (rec.ms("autodiff.conv2d") / steps, "ms"),
            "autodiff.conv2d.calls": (rec.n_calls("autodiff.conv2d") / steps, "calls"),
        })
    return {"%s.%s" % (name, key): value for key, value in out.items()}


def traced(args, counts: Counts, record: dict) -> dict:
    """Per-layer metrics of every workload, each traced for a third of the
    time; the conv2d backward probe runs before any patch is in place."""
    metrics = {"train.autodiff.conv2d_bwd.ms": (w.conv2d_backward_ms(), "ms")}
    for name in w.WORKLOADS:
        metrics.update(traced_workload(name, args, counts))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(w.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    info = manifest(args)
    if info["blas_threads_in_force"] not in (None, 1):
        print("BLAS runs %s threads, expected 1" % info["blas_threads_in_force"],
              file=sys.stderr)
        return 2
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)
    counts = Counts()
    record = {"manifest": info}
    correct = True
    try:
        metrics = (traced if args.trace else untraced)(args, counts, record)
    except w.CheckFailed as e:
        print("check failed: %s" % e, file=sys.stderr)
        correct = False
        metrics = {}
    if counts.failed == counts.attempted:
        print("every operation failed", file=sys.stderr)
        return 1
    result = {"correct": correct, "attempted": counts.attempted, "failed": counts.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    path = OUT / ("%s-trace%d.json" % (args.workload, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
