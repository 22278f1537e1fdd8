#!/usr/bin/env python3
"""Check that two source trees of congru give the same CLI output.

    python scripts/same_output.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `congru` package (a
checkout's `src/`).  The seed-1 benchmark inputs are written with
bench/workloads.py into a temporary directory, and every run below is
made once against each tree, each tree in its own child process that
calls `congru.cli.main`:

- `decompose` and `sparse-form` with `--json --emit-transform` on all
  150 exact inputs;
- the text forms of `decompose --emit-transform`,
  `sparse-form --emit-transform`, `regularize`, `invariants` and
  `pencil` on every fifth exact input;
- `decompose --json --emit-transform` on every fifth exact-gaussian
  input with `--involution identity` and on every fifth exact-prime
  input with `--prime 3`, cases that no benchmark workload serves;
- `pencil --json --emit-transform` on every fifth exact input;
- `decompose --json --emit-transform` on every fifth exact-rational
  and exact-gaussian input made fractional by the congruence D A D*
  with D = diag(1 / (1 + i % 7)): no benchmark workload has Q or Q(i)
  inputs with denominators, and these start every integer row of the
  Q kernels with a denominator other than 1;
- `verify --json --seed 1`: the round-trip suite with 20 trials, and
  the invariance suite with 3 trials on the first input of each exact
  workload;
- `float-regularize` in text and JSON on the 25 float-complex inputs.

A run's stdout, stderr and exit code must match byte for byte.  The
script prints the number of differing runs, then the line count of
each tree's `congru/*.py`, and exits 1 on any difference.
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import PRIME, WORKLOADS, write_inputs  # noqa: E402

SEED = 1
TEXT_COMMANDS = ("decompose", "sparse-form", "regularize", "invariants",
                 "pencil")
TRANSFORM_COMMANDS = ("decompose", "sparse-form", "pencil")
# every fifth input of these workloads is also decomposed over another
# field than the workload's own
OTHER_FIELD = {
    "exact-gaussian": ["--field", "gaussian-rational",
                       "--involution", "identity"],
    "exact-prime": ["--field", "prime-field", "--involution", "identity",
                    "--prime", "3"],
}

# runs each argv through congru.cli.main and writes
# [[status, stdout, stderr], ...] as JSON
CHILD = r"""
import contextlib, io, json, sys, traceback
from congru.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except Exception:
            traceback.print_exc()
            status = "raised"
    results.append([status, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _write_text_copy(json_path: str) -> str:
    """The same matrix in the text grid format, next to the JSON."""
    with open(json_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    lines = [f"{rows} {cols}"]
    lines += [" ".join(str(e) for e in entries[i * cols:(i + 1) * cols])
              for i in range(rows)]
    path = json_path[:-len(".json")] + ".txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# an entry as bench/workloads.py writes it: an integer, or over Q(i)
# an integer real part with an optional integer multiple of i
_ENTRY = re.compile(r"(-?\d+)(?:([+-]\d+)\*i)?")


def _divided(entry: str, s: int) -> str:
    m = _ENTRY.fullmatch(entry)
    re_part = Fraction(int(m.group(1)), s)
    if m.group(2) is None:
        return str(re_part)
    im_part = Fraction(int(m.group(2)), s)
    return f"{re_part}{'+' if im_part > 0 else '-'}{abs(im_part)}*i"


def _write_fractional_copy(json_path: str) -> str:
    """D A D* with D = diag(1 / (1 + i % 7)), next to the JSON.  D is
    real, so D* = D under either involution."""
    with open(json_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    cols = obj["cols"]
    obj["entries"] = [
        _divided(e, (1 + k // cols % 7) * (1 + k % cols % 7))
        for k, e in enumerate(obj["entries"])]
    path = json_path[:-len(".json")] + "-fractional.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def build_runs(directory: str) -> list[list[str]]:
    runs = [["verify", "--json", "--seed", str(SEED), "--trials", "20"]]
    for name, workload in WORKLOADS.items():
        out_dir = os.path.join(directory, name)
        os.mkdir(out_dir)
        manifest = write_inputs(workload, SEED, out_dir)
        flags = ["--field", workload.field,
                 "--involution", workload.involution]
        if workload.field == "prime-field":
            flags += ["--prime", str(PRIME)]
        for k, req in enumerate(manifest["requests"]):
            path = req["path"]
            text_path = _write_text_copy(path)
            if workload.command == "float-regularize":
                runs.append(["float-regularize", *flags, "--json", path])
                runs.append(["float-regularize", *flags, text_path])
                continue
            for command in ("decompose", "sparse-form"):
                runs.append([command, *flags, "--json", "--emit-transform",
                             path])
            if k == 0:
                runs.append(["verify", *flags, "--json", "--seed", str(SEED),
                             "--trials", "3", path])
            if k % 5 == 0:
                runs.append(["pencil", *flags, "--json", "--emit-transform",
                             path])
                for command in TEXT_COMMANDS:
                    extra = (["--emit-transform"]
                             if command in TRANSFORM_COMMANDS else [])
                    runs.append([command, *flags, *extra, text_path])
                if name in OTHER_FIELD:
                    runs.append(["decompose", *OTHER_FIELD[name], "--json",
                                 "--emit-transform", path])
                if workload.field in ("rational", "gaussian-rational"):
                    runs.append(["decompose", *flags, "--json",
                                 "--emit-transform",
                                 _write_fractional_copy(path)])
    return runs


def run_tree(src: str, runs: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", CHILD], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    proc.stdin.write(json.dumps(runs))
    proc.stdin.close()
    return proc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_output.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as directory:
        runs = build_runs(directory)
        procs = [run_tree(src, runs) for src in argv]
        results = []
        for src, proc in zip(argv, procs):
            out = proc.stdout.read()
            if proc.wait() != 0:
                print(f"child process for {src} failed", file=sys.stderr)
                return 1
            results.append(json.loads(out))
    differ = 0
    for argv_run, old, new in zip(runs, *results):
        if old != new:
            differ += 1
            if differ <= 5:
                fields = [k for k, a, b in zip(("exit code", "stdout",
                                                "stderr"), old, new)
                          if a != b]
                shown = [a[len(directory) + 1:] if a.startswith(directory)
                         else a for a in argv_run]
                print(f"differs in {', '.join(fields)}: {' '.join(shown)}")
    print(f"{differ} of {len(runs)} runs differ")
    for src in argv:
        print(f"{_line_count(src):,} lines in {src}/congru/*.py")
    return 1 if differ else 0


def _line_count(src: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(src, "congru", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
