"""Pinned outputs: what one perfbench `train` round and one `sweep` round at
seed 3 produce, and the platform that produced them.

The pinned values live in tests/golden.json, and
test_perfbench.py::test_train_and_sweep_outputs_have_the_pinned_bits
compares a fresh run against them.  A change that means to alter outputs
regenerates them, from the root of a checkout, with

    python3 tests/golden.py --write

and says in CHANGES.md which value changed and why.  Without --write the
script prints the current values.

The bits depend on numpy and on the OpenBLAS kernel picked for the CPU, so
the platform is pinned next to them; elsewhere the test skips, naming the
difference.
"""

from __future__ import annotations

import ctypes
import csv
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SEED = 3


def openblas_config() -> str | None:
    """The config string of the OpenBLAS that numpy loaded, which names the
    kernel it picked for this CPU; None where that library is not OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_char_p, []
                return get().decode()
    return None


def platform() -> dict:
    return {"numpy": np.__version__, "openblas": openblas_config()}


def _blank_wall_ns(name: str, text: str) -> str:
    """The file's text with its wall-clock figures blanked."""
    if name.endswith(".jsonl"):
        return re.sub(r'"wall_ns": \d+', '"wall_ns": null', text)
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        column = rows[0].index("wall_ns")
        for row in rows[1:]:
            row[column] = ""
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    return text


def outputs(workloads, out_dir: Path) -> dict:
    """Run one train and one sweep round of perfbench's workloads module into
    out_dir; returns the final parameter digest, the epoch losses and a
    sha256 of every file the sweep wrote, with wall_ns blanked."""
    train = workloads.Train(SEED, out_dir).round()
    workloads.Sweep(SEED, out_dir).round()
    files = {}
    for path in sorted((out_dir / "sweep").iterdir()):
        text = _blank_wall_ns(path.name, path.read_text(encoding="utf-8"))
        files[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"train_digest": train["digest"],
            "epoch_losses": [r.mean_loss for r in train["reports"]],
            "sweep_files": files}


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="overwrite tests/golden.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from test_perfbench import load_perfbench
    with tempfile.TemporaryDirectory() as tmp:
        got = {"platform": platform(), "outputs": outputs(load_perfbench("workloads"), Path(tmp))}
    text = json.dumps(got, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
        print("wrote %s" % GOLDEN)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
