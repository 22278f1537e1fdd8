#!/usr/bin/env python3
"""Time congru against the matrix size n on two source trees.

    python scripts/scaling.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `congru` package (a
checkout's `src/`).  Two kinds of case are timed:

- `full_decomposition` over Q, over Q(i) with conjugation and over
  GF(2^31-1), at n = 26, 52, 78 and 104.  The input is
  A = S* (B (+) J...) S, with B and then S drawn from one
  random.Random(0) by `verify._draw_nonsingular(rng, field, size, 3)`;
  |B| = n // 4, and the Jordan sizes cycle 1, 2, 3, 4, 5, the last one
  cut to fit, placed after B in ascending order.  The benchmark's
  exact workloads stop at n = 26, 14 and 36.
- `cli.run` of `float-regularize --json`, complex with conjugation, at
  n = 75, 150 and 300, on bench/workloads.py's float-complex recipe
  with |B| = n // 4, the same Jordan cycle and sigma(B) spread 1e-2.
  The read, `cli._load_float` (the file, `json.loads` and the float
  reader), is timed on its own as well, so that its share of a request
  is on record.

Every timing runs in a fresh child process, one per tree and case, with
one BLAS thread; the trees take turns, and each tree's figure is the
best of 2 children.  The table gives both trees' seconds and their
ratio, and whether the two trees produced the same output: the
transform X and the block sum of the decomposition, or the float
command's stdout.  Exact inputs are drawn in each child by its own
tree, so the table also says whether the two trees drew the same A.
The script uses the standard library and congru; the float inputs are
written once, by a child that imports bench/workloads.py (numpy).
It measures and prints; it checks nothing, and it is no test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_SIZES = (26, 52, 78, 104)
FLOAT_SIZES = (75, 150, 300)
FIELDS = ("Q", "Q(i)", "GF(2^31-1)")
REPEATS = 2
CHILD_TIMEOUT_S = 900

# {"field": ..., "n": ...} or {"path": ...} on stdin; prints the
# seconds of one timed call, the seconds of the read (float only), a
# digest of the input and a digest of the output
CHILD = r"""
import gc, hashlib, json, random, sys, time

case = json.load(sys.stdin)
digest = lambda obj: hashlib.sha256(
    json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]
if "field" in case:
    from congru import FieldSpec, direct_sum, full_decomposition, jordan_block
    from congru.verify import _draw_nonsingular

    field = {"Q": FieldSpec.rationals(), "Q(i)": FieldSpec.gaussian(),
             "GF(2^31-1)": FieldSpec.prime_field(2**31 - 1)}[case["field"]]
    n = case["n"]
    sizes, left, k = [], n - n // 4, 0
    while left:
        sizes.append(min(k % 5 + 1, left))
        left -= sizes[-1]
        k += 1
    rng = random.Random(0)
    b = _draw_nonsingular(rng, field, n // 4, 3)
    s = _draw_nonsingular(rng, field, n, 3)
    c = direct_sum(field, [b, *(jordan_block(field, k) for k in sorted(sizes))])
    a = (s.star * c) * s
    gc.collect()
    start = time.perf_counter()
    bs, x = full_decomposition(a)
    seconds, read = time.perf_counter() - start, None
    out = [x.to_json_dict(), bs.regular_part.to_json_dict(),
           sorted(bs.jordan_multiplicities.items())]
    inp = a.to_json_dict()
else:
    from congru import cli

    config = cli.CliConfig(
        command="float-regularize", input_path=case["path"], field="complex",
        involution="conjugate", json_io=True)
    gc.collect()
    start = time.perf_counter()
    res = cli.run(config)
    seconds = time.perf_counter() - start
    gc.collect()
    start = time.perf_counter()
    cli._load_float(config, True)
    read = time.perf_counter() - start
    out, inp = [res.status, res.out, res.err], case["path"]
print(json.dumps({"seconds": seconds, "read": read, "input": digest(inp),
                  "output": digest(out)}))
"""

# argv: the repository root, a directory, then sizes; writes the
# float-complex recipe's input for each size n into the directory as
# n<n>.json
FLOAT_INPUTS = r"""
import os, random, sys
sys.path.insert(0, os.path.join(sys.argv[1], "bench"))
from workloads import Shape, _float_text

for n in map(int, sys.argv[3:]):
    sizes, left, k = [], n - n // 4, 0
    while left:
        sizes.append(min(k % 5 + 1, left))
        left -= sizes[-1]
        k += 1
    text = _float_text(Shape(n, n // 4, tuple(sorted(sizes)), 1e-2),
                       random.Random(0))
    with open(os.path.join(sys.argv[2], f"n{n}.json"), "w") as fh:
        fh.write(text)
"""


def _child(src: str, case: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          input=json.dumps(case), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def _measure(trees: list[str], case: dict) -> list[dict]:
    """Per tree: the best of REPEATS children, with the trees taking
    turns, and whether its runs agreed with each other."""
    runs = [[] for _ in trees]
    for _ in range(REPEATS):
        for k, src in enumerate(trees):
            runs[k].append(_child(src, case))
    best = []
    for tree_runs in runs:
        first = min(tree_runs, key=lambda r: r["seconds"])
        reads = [r["read"] for r in tree_runs if r["read"] is not None]
        best.append({**first, "read": min(reads) if reads else None})
    return best


def _row(label: str, n: int, best: list[dict]) -> str:
    old, new = best
    cells = [f"{label:<11}", f"{n:>4}", f"{old['seconds']:>9.3f}",
             f"{new['seconds']:>9.3f}",
             f"{new['seconds'] / old['seconds']:>6.2f}"]
    if old["read"] is not None:
        cells.append(f"{old['read']:>7.3f} ({old['read'] / old['seconds']:4.0%})"
                     f" {new['read']:>7.3f} ({new['read'] / new['seconds']:4.0%})")
    else:
        cells.append(f"{'':>31}")
    cells.append("same input" if old["input"] == new["input"]
                 else "INPUT DIFFERS")
    cells.append("same output" if old["output"] == new["output"]
                 else "output differs")
    return "  ".join(cells)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: scaling.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cores; "
          f"seconds, best of {REPEATS}; read = cli._load_float")
    print(f"{'case':<11}  {'n':>4}  {'parent':>9}  {'change':>9}  "
          f"{'ratio':>6}  {'read: parent':>15} {'change':>15}")
    for field in FIELDS:
        for n in EXACT_SIZES:
            print(_row(field, n, _measure(argv, {"field": field, "n": n})),
                  flush=True)
    with tempfile.TemporaryDirectory() as directory:
        subprocess.run([sys.executable, "-c", FLOAT_INPUTS, ROOT, directory,
                        *map(str, FLOAT_SIZES)],
                       check=True, timeout=CHILD_TIMEOUT_S,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        for n in FLOAT_SIZES:
            case = {"path": os.path.join(directory, f"n{n}.json")}
            print(_row("float C", n, _measure(argv, case)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
