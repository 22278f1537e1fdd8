#!/usr/bin/env python3
"""Check that two source trees of congru give the same CLI output.

    python scripts/same_output.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `congru` package (a
checkout's `src/`).  The seed-1 benchmark inputs are written with
bench/workloads.py into a temporary directory, and every run below is
made once against each tree, each tree in its own child process that
calls `congru.cli.main`:

- `decompose`, `sparse-form` and `pencil` with `--json
  --emit-transform` on all 150 exact inputs;
- `invariants --json` and `regularize --json` on all 150 exact inputs:
  `invariants` takes its rank, its nullity and the stack [A; A*] that
  `from_blocks` assembles, and `regularize` the stages alone;
- the text forms of `decompose --emit-transform`,
  `sparse-form --emit-transform`, `regularize`, `invariants` and
  `pencil` on every fifth exact input;
- `decompose --json --emit-transform` on every fifth exact-gaussian
  input with `--involution identity` and on every fifth exact-prime
  input with `--prime 3`, cases that no benchmark workload serves;
- `decompose`, `sparse-form` and `pencil`, each with
  `--json --emit-transform`, on every fifth exact-rational and
  exact-gaussian input made fractional by the congruence D A D* with
  D = diag(1 / (1 + i % 7)): no benchmark workload has Q or Q(i)
  inputs with denominators, and these start every stored integer row
  with a denominator other than 1, so that products, eliminations,
  negations and block assemblies meet rows whose denominators differ;
- `decompose --emit-transform`, in JSON and in text, on every fifth
  exact input with each entry spelled another way that the grammar
  reads as the same value: `+x`, `2x/2` (over GF(p), whose grammar
  has no `/`, a leading zero), padded with spaces and tabs, and every
  zero as `0/7` (over GF(p) as `-0`), so that the readers meet signs,
  common factors, leading zeros and padding that the benchmark
  inputs never carry;
- `decompose --json --emit-transform` with `--prime 2147483647` and
  with `--prime 2` on the direct sums A_0 (+) A_1, A_2 (+) A_3, ... of
  the exact-prime inputs, n up to 64 where the benchmark stops at 36:
  larger GF(p) eliminations and products, whose packed rows have more
  slots and take more clears, and `invariants --json` and
  `regularize --json` with the same two primes on those sums;
- `decompose --json --emit-transform` with `--involution conjugate`
  and with `--involution identity` on the direct sums of the
  exact-gaussian inputs, formed the same way, n up to 28 where the
  benchmark stops at 14: Q(i) integer rows that take more clears and
  grow more content;
- `verify --json --seed 1`: the round-trip suite with 20 trials, and
  the invariance suite with 3 trials on the first input of each exact
  workload;
- `float-regularize` in text and JSON on the 25 float-complex inputs,
  and on copies of every fifth one: one with each entry spelled another
  way that reads as the same value (`a+bi`, `a+b*j`, `(a+bj)`,
  seventeen-digit exponents, padded with spaces and a tab), and two
  with one entry in the middle row replaced by an odd token (`bi`, a
  JSON int or float, `nan`, `inf`, a JSON `true`, an empty string,
  `_`, a non-ASCII digit or `a+b*i*i`), so that the rows a float
  reader parses whole and the ones it reads token by token, with their
  errors, are compared too.

A run's stdout, stderr and exit code must match byte for byte.  For each
`float-regularize` run that differs and exits 0 in both trees, the
script prints whether its `m`, its warnings and its stderr match, and
the largest absolute difference between the entries of the two regular
blocks.  It prints the number of differing runs, then the number that
still differ once the entries of every transform, replaced transform,
regular part and pencil coefficient matrix are masked (their dimensions
kept; float-regularize runs are never masked), then how many of the
change tree's `decompose --json --emit-transform` transforms X pass
`check_transform(A, X, assemble(answer))` against that run's own answer,
and last the line count of each tree's `congru/*.py`, all lines and code
lines (not blank, not a comment, not a docstring), with the number of
names in that tree's `congru.__all__`, read from the syntax tree of
`congru/__init__.py` without importing the package.  Last, for each
tree, it lists as module.qualname every function and method of
`congru/*.py` that none of the runs above enters.  The child records
the calls with a call-only `sys.settrace` hook that returns None, so no
line is traced; the hook about doubles the script's time.  The list
means "not reached by these runs", not "dead": error paths such as
`scalar._quote_token` appear because the runs feed no malformed input,
and the `check_transform` calls are not traced.  After the two lists
it prints their difference: the names that only the parent tree's
list holds, which the change deleted or now reaches, and the names
that only the change tree's list holds.  It exits 1 on any byte
difference and on any failed check.
"""

from __future__ import annotations

import ast
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
# run with --json alone on every exact input and on the GF(p) direct sums
SUMMARY_COMMANDS = ("invariants", "regularize")
# every fifth input of these workloads is also decomposed over another
# field than the workload's own
OTHER_FIELD = {
    "exact-gaussian": ["--field", "gaussian-rational",
                       "--involution", "identity"],
    "exact-prime": ["--field", "prime-field", "--involution", "identity",
                    "--prime", "3"],
}
# the direct sums A_0 (+) A_1, A_2 (+) A_3, ... of these workloads'
# inputs are decomposed once with each of these flags
DIRECT_SUM = {
    "exact-gaussian": [["--involution", "conjugate"],
                       ["--involution", "identity"]],
    "exact-prime": [["--prime", str(PRIME)], ["--prime", "2"]],
}

# runs each argv through congru.cli.main and writes {"results":
# [[status, stdout, stderr], ...], "reached": [...]} as JSON, reached
# naming every function of congru/*.py that a call entered, as
# module.qualname; the hook sees calls only (it returns None, so no
# line is traced) and is set before congru is imported
CHILD = r"""
import contextlib, io, json, os, sys, traceback

entered = set()


def _called(frame, event, arg):
    entered.add(frame.f_code)


sys.settrace(_called)
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
sys.settrace(None)
reached = sorted({
    f"{os.path.basename(c.co_filename)[:-3]}.{c.co_qualname}"
    for c in entered
    if os.path.basename(os.path.dirname(c.co_filename)) == "congru"})
json.dump({"results": results, "reached": reached}, sys.stdout)
"""

# reads [[argv, stdout], ...] of decompose --json --emit-transform runs
# and writes the argv of every run whose transform fails check_transform
CHECK_CHILD = r"""
import json, sys
from congru import BlockSum, Matrix, assemble, check_transform
from congru.cli import CliConfig, _load_exact, _resolve_field, build_parser

failed = []
for argv, out in json.load(sys.stdin):
    config = CliConfig(**vars(build_parser().parse_args(argv)))
    field = _resolve_field(config)
    obj = json.loads(out)
    mults = {int(k): v for k, v in obj["multiplicities"].items()}
    target = assemble(BlockSum(Matrix.from_json_dict(field, obj["regular"]),
                               mults))
    x = Matrix.from_json_dict(field, obj["transform"])
    if not check_transform(_load_exact(config, field), x, target).ok:
        failed.append(argv)
json.dump(failed, sys.stdout)
"""

# the matrices whose entries depend on the completions that the stages
# and merges choose; the structural comparison masks their entries
JSON_MASKED = ("regular", "transform", "replaced_transform", "constant",
               "lambda")
TEXT_MASKED = ("regular:", "transform:", "replaced transform:",
               "jordan constant:", "jordan lambda:", "replaced constant:",
               "replaced lambda:")


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


def _respelled(entry: str, k: int, prime: bool) -> str:
    """entry, as bench/workloads.py writes it, spelled the way k picks
    out of the module docstring's list."""
    m = _ENTRY.fullmatch(entry)
    re_part, im_part = int(m.group(1)), m.group(2)
    if not re_part and im_part is None:
        return "-0" if prime else "0/7"
    if k % 3 == 0:
        return entry if entry.startswith("-") else "+" + entry
    if k % 3 == 2:
        return f" {entry}\t "
    if prime:
        return "0" + entry
    doubled = f"{2 * re_part}/2"
    if im_part is None:
        return doubled
    im = int(im_part)
    return f"{doubled}{'+' if im > 0 else '-'}{2 * abs(im)}/2*i"


def _write_respelled_copies(json_path: str, prime: bool) -> tuple[str, str]:
    """The matrix with _respelled entries, as JSON and as text, next to
    the JSON."""
    with open(json_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["entries"] = [_respelled(e, k, prime)
                      for k, e in enumerate(obj["entries"])]
    path = json_path[:-len(".json")] + "-respelled.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path, _write_text_copy(path)


def _float_respelled(entry: str, k: int) -> str:
    """entry, a+b*i as bench/workloads.py writes it, spelled the way k
    picks out of the module docstring's list, with the same value."""
    z = complex(entry.replace("*i", "j"))
    a, b = z.real, z.imag
    return (entry, f"{a!r}{b:+}i", f"{a!r}{b:+}*j", f"({a!r}{b:+}j)",
            f"{a:.17e}{b:+.17e}*i", f" \t{entry} ")[k % 6]


# the odd tokens of the float copies, two for each copied input
FLOAT_ODD = ("2.5i", 7, 0.5, "nan", "inf", True, "", "1_0+2*i",
             "\u0661+2*i", "1+2*i*i")


def _write_float_copies(json_path: str, j: int) -> list[str]:
    """The respelled copy and the two odd copies of a float input, as
    JSON and as text, next to the JSON; j counts the copied inputs."""
    with open(json_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    entries, rows, cols = obj["entries"], obj["rows"], obj["cols"]
    copies = {"respelled": [_float_respelled(e, k)
                            for k, e in enumerate(entries)]}
    for t, odd in enumerate(FLOAT_ODD[2 * j:2 * j + 2]):
        copies[f"odd{t}"] = entries[:]
        copies[f"odd{t}"][rows // 2 * cols + cols // 2] = odd
    paths = []
    for label, copy in copies.items():
        path = json_path[:-len(".json")] + f"-{label}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**obj, "entries": copy}, fh)
        paths += [path, _write_text_copy(path)]
    return paths


def _write_direct_sum(first: str, second: str) -> str:
    """first (+) second, block diagonal, next to first."""
    with open(first, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(second, encoding="utf-8") as fh:
        b = json.load(fh)
    n, m = a["cols"], b["cols"]
    entries = []
    for i in range(a["rows"]):
        entries += a["entries"][i * n:(i + 1) * n] + ["0"] * m
    for i in range(b["rows"]):
        entries += ["0"] * n + b["entries"][i * m:(i + 1) * m]
    path = first[:-len(".json")] + "-sum.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": a["rows"] + b["rows"], "cols": n + m,
                   "entries": entries}, fh)
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
                if k % 5 == 0:
                    for copy in _write_float_copies(path, k // 5):
                        json_flag = ["--json"] * copy.endswith(".json")
                        runs.append(["float-regularize", *flags,
                                     *json_flag, copy])
                continue
            for command in TRANSFORM_COMMANDS:
                runs.append([command, *flags, "--json", "--emit-transform",
                             path])
            for command in SUMMARY_COMMANDS:
                runs.append([command, *flags, "--json", path])
            if k == 0:
                runs.append(["verify", *flags, "--json", "--seed", str(SEED),
                             "--trials", "3", path])
            if k % 5 == 0:
                for command in TEXT_COMMANDS:
                    extra = (["--emit-transform"]
                             if command in TRANSFORM_COMMANDS else [])
                    runs.append([command, *flags, *extra, text_path])
                if name in OTHER_FIELD:
                    runs.append(["decompose", *OTHER_FIELD[name], "--json",
                                 "--emit-transform", path])
                json_copy, text_copy = _write_respelled_copies(
                    path, workload.field == "prime-field")
                runs.append(["decompose", *flags, "--json",
                             "--emit-transform", json_copy])
                runs.append(["decompose", *flags, "--emit-transform",
                             text_copy])
                if workload.field in ("rational", "gaussian-rational"):
                    fractional = _write_fractional_copy(path)
                    for command in TRANSFORM_COMMANDS:
                        runs.append([command, *flags, "--json",
                                     "--emit-transform", fractional])
        if name in DIRECT_SUM:
            paths = [req["path"] for req in manifest["requests"]]
            for first, second in zip(paths[::2], paths[1::2]):
                path = _write_direct_sum(first, second)
                for extra in DIRECT_SUM[name]:
                    field = ["--field", workload.field, *extra]
                    runs.append(["decompose", *field, "--json",
                                 "--emit-transform", path])
                    if workload.field == "prime-field":
                        for command in SUMMARY_COMMANDS:
                            runs.append([command, *field, "--json", path])
    return runs


def run_tree(src: str, runs: list, child: str = CHILD) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", child], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    proc.stdin.write(json.dumps(runs))
    proc.stdin.close()
    return proc


def _masked_json(obj):
    if isinstance(obj, list):
        return [_masked_json(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    return {k: ({"rows": v["rows"], "cols": v["cols"]}
                if k in JSON_MASKED and isinstance(v, dict) and "entries" in v
                else _masked_json(v)) for k, v in obj.items()}


def _masked_text(out: str) -> str:
    """Each masked matrix keeps its label and its "rows cols" line."""
    lines, kept = out.split("\n"), []
    i = 0
    while i < len(lines):
        kept.append(lines[i])
        if lines[i] in TEXT_MASKED:
            kept.append(lines[i + 1])
            i += 1 + int(lines[i + 1].split()[0])
        i += 1
    return "\n".join(kept)


def _structure(argv: list, result: list) -> list:
    """A run's result with the entries of JSON_MASKED / TEXT_MASKED
    matrices dropped; a failed run and a float run stay as they are."""
    status, out, err = result
    if status != 0 or argv[0] == "float-regularize":
        return result
    if "--json" in argv:
        return [status, _masked_json(json.loads(out)), err]
    return [status, _masked_text(out), err]


def _float_parts(argv: list, out: str) -> tuple:
    """m, warnings and regular-block entries of a float-regularize
    stdout; the text form prints its warnings on stderr only."""
    if "--json" in argv:
        obj = json.loads(out)
        return obj["m"], obj["warnings"], obj["regular"]["entries"]
    lines = out.split("\n")
    k = lines.index("regular:")
    rows = int(lines[k + 1].split()[0])
    return lines[0], None, " ".join(lines[k + 2:k + 2 + rows]).split()


def _float_diagnostic(argv: list, old: list, new: list) -> str:
    (m0, w0, e0), (m1, w1, e1) = (_float_parts(argv, r[1])
                                  for r in (old, new))
    same = {"m": m0 == m1, "warnings": w0 == w1, "stderr": old[2] == new[2]}
    parts = [f"{k} {'same' if v else 'differs'}" for k, v in same.items()]
    def value(tok: str) -> complex:
        return complex(tok.replace("*i", "j"))

    if len(e0) == len(e1):
        diff = max((abs(value(a) - value(b)) for a, b in zip(e0, e1)),
                   default=0.0)
        parts.append(f"regular entries differ by at most {diff:.3g}")
    else:
        parts.append("regular blocks differ in size")
    return ", ".join(parts)


def _is_checked(argv: list, result: list) -> bool:
    return (argv[0] == "decompose" and "--json" in argv
            and "--emit-transform" in argv and result[0] == 0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_output.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as directory:
        runs = build_runs(directory)
        procs = [run_tree(src, runs) for src in argv]
        results, reached = [], []
        for src, proc in zip(argv, procs):
            out = proc.stdout.read()
            if proc.wait() != 0:
                print(f"child process for {src} failed", file=sys.stderr)
                return 1
            obj = json.loads(out)
            results.append(obj["results"])
            reached.append(set(obj["reached"]))
        checked = [[run, res[1]] for run, res in zip(runs, results[1])
                   if _is_checked(run, res)]
        proc = run_tree(argv[1], checked, CHECK_CHILD)
        out = proc.stdout.read()
        if proc.wait() != 0:
            print(f"check process for {argv[1]} failed", file=sys.stderr)
            return 1
        failed_checks = json.loads(out)

    def shown(run: list) -> str:
        return " ".join(a[len(directory) + 1:] if a.startswith(directory)
                        else a for a in run)

    differ = structural = 0
    for run, old, new in zip(runs, *results):
        if old != new:
            differ += 1
            if differ <= 5:
                fields = [k for k, a, b in zip(("exit code", "stdout",
                                                "stderr"), old, new)
                          if a != b]
                print(f"differs in {', '.join(fields)}: {shown(run)}")
            if run[0] == "float-regularize" and old[0] == new[0] == 0:
                print(f"float run: {_float_diagnostic(run, old, new)}: "
                      f"{shown(run)}")
        if _structure(run, old) != _structure(run, new):
            structural += 1
            if structural <= 5:
                print(f"differs in structure: {shown(run)}")
    print(f"{differ} of {len(runs)} runs differ")
    print(f"{structural} of {len(runs)} runs differ with matrix entries "
          "masked")
    for run in failed_checks:
        print(f"check_transform fails: {shown(run)}")
    print(f"{len(checked) - len(failed_checks)} of {len(checked)} "
          f"decompose transforms of {argv[1]} pass check_transform")
    for src in argv:
        lines, code = _line_counts(src)
        print(f"{lines:,} lines, {code:,} of them code, in "
              f"{src}/congru/*.py; {_export_count(src)} names in __all__")
    missed = [_functions(src) - entered
              for src, entered in zip(argv, reached)]
    for src, names in zip(argv, missed):
        print(f"{len(names)} functions in {src}/congru/*.py that no run "
              "enters:")
        for name in sorted(names):
            print(f"  {name}")
    for label, names in (("only the parent's", missed[0] - missed[1]),
                         ("only the change's", missed[1] - missed[0])):
        print(f"{len(names)} of these functions are on {label} list:")
        for name in sorted(names):
            print(f"  {name}")
    return 1 if differ or failed_checks else 0


def _line_counts(src: str) -> tuple[int, int]:
    """All lines, and code lines: those that are not blank, not a
    comment and not part of a docstring."""
    lines = code = 0
    for path in glob.glob(os.path.join(src, "congru", "*.py")):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.update(range(body[0].lineno,
                                        body[0].end_lineno + 1))
        for k, line in enumerate(text.splitlines(), start=1):
            lines += 1
            stripped = line.strip()
            code += bool(stripped and not stripped.startswith("#")
                         and k not in docstrings)
    return lines, code


def _functions(src: str) -> set[str]:
    """Every function and method defined in congru/*.py, named as the
    child names the functions it entered: module.qualname."""
    names = set()
    for path in glob.glob(os.path.join(src, "congru", "*.py")):
        module = os.path.basename(path)[:-len(".py")]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    names.add(f"{module}.{prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return names


def _export_count(src: str) -> int:
    """len(congru.__all__), read off the assignment in __init__.py."""
    with open(os.path.join(src, "congru", "__init__.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return len(node.value.elts)
    raise ValueError(f"no __all__ in {src}/congru/__init__.py")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
