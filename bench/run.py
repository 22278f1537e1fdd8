"""The congru benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One client in one process sends one request at a time (a closed loop):
each request is an in-process call to congru.cli.run, the CLI without
interpreter start-up, on a JSON input file written at set-up.  The
oracle checks every output outside the timed span.  A run serves
requests until it has measured for --seconds and served at least
MIN_REQUESTS, cycling through the workload's distinct inputs; an input
seen before is checked by comparing its output with the one already
verified.

--trace 0 reports the end-to-end metrics; --trace 1 serves a fixed set
of requests with and without spans around each layer and reports the
per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A fuller
record, with the input fingerprint and the run's context, goes to
.bench_results/ at the root of the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # pinned before numpy loads here or in any child process; the load
    # shape allows at most nproc BLAS threads, and one is the steadiest
    for _var in BLAS_VARS:
        os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")

sys.path.insert(0, HERE)
from workloads import PRIME, WORKLOADS  # noqa: E402

MIN_REQUESTS = 100      # so that ten samples lie beyond the p90
WALL_CAP_S = 120.0      # stop serving after this long, whatever the count
COLD_STARTS = 3         # setup_s is their median
IMPORT_PROBES = 3
TRACE_SET = 10          # requests served per traced sweep
CHILD_TIMEOUT_S = 60.0

# On a shared 2-vCPU virtual machine, host speed drifts by 20-40%
# within minutes, in CPU time as much as in wall time.  End-to-end timings are
# therefore in reference seconds: wall seconds at a fixed host speed,
# estimated from reference work timed next to each measurement.  A
# stdlib kernel tracks request times: scaling by CAL_REF_S / kernel
# time cut their variation over minutes from 19% to 4% (exact-prime)
# and from 13% to 4% (float-complex).  The kernel does not track cold
# starts, so each cold start is scaled by REF_START_S / the time of a
# fresh interpreter importing numpy; that cut their variation from 16%
# to 3%.  The raw wall figures go to the result record beside them.
CAL_REF_S = 0.005
REF_START_S = 0.15
_CAL_A = tuple(Fraction(i, 7) for i in range(1, 60))
_CAL_B = _CAL_A[:20]

E2E_UNITS = {
    "latency_p50_s": "s", "latency_p90_s": "s", "throughput_rps": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# per request means over the traced requests, except where noted
LAYER_UNITS = {
    "scalar.axpy_us": "us",
    "matrix.mul.calls": "count/req",
    "matrix.mul.self_s": "s",
    "matrix.mul.scalar_mults": "count/req",
    "matrix.mul.ns_per_mult": "ns",
    "matrix.elim.calls": "count/req",
    "matrix.elim.self_s": "s",
    "matrix.rank.calls": "count/req",
    "matrix.star.self_s": "s",
    "matrix.assembly.self_s": "s",
    "matrix.x_bits_max": "bits",            # max over the traced requests
    "matrix.parse.self_s": "s",
    "matrix.render.self_s": "s",
    "cli.run.self_s": "s",
    "cli.import.numpy_s": "s",              # fresh interpreter, median
    "cli.import.rest_s": "s",
    "regularize.stage.calls": "count/req",
    "regularize.stage.self_s": "s",
    "sparse_form.reduce_cde.calls": "count/req",
    "sparse_form.reduce_cde.self_s": "s",
    "sparse_form.canonical_sparse_form.self_s": "s",
    "sparse_form.full_decomposition.self_s": "s",
    "float_unitary.svd.calls": "count/req",
    "float_unitary.svd.s": "s",
    "float_unitary.float_stage.calls": "count/req",
    "float_unitary.float_stage.self_s": "s",
    "float_unitary.float_regularize.self_s": "s",
    "float_unitary.residuals.s": "s",
    "float_unitary.parse.s": "s",
    "float_unitary.warnings": "count/req",
    "trace.overhead_ratio": "ratio",        # traced p50 / untraced p50
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- the program under test ------------------------------------------------------


def _load_congru():
    if not os.path.isfile(os.path.join(SRC, "congru", "cli.py")):
        raise BenchError(f"no congru sources under {SRC}")
    sys.path.insert(0, SRC)
    import congru
    import congru.cli

    if not os.path.abspath(congru.__file__).startswith(SRC + os.sep):
        raise BenchError(f"congru imported from {congru.__file__}, "
                         f"not from {SRC}")
    return congru


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _cli_args(workload, path: str) -> list[str]:
    args = [workload.command, "--field", workload.field,
            "--involution", workload.involution, "--json"]
    if workload.field == "prime-field":
        args += ["--prime", str(PRIME)]
    if workload.command == "decompose":
        args.append("--emit-transform")
    return args + [path]


def _config(cli, workload, path: str):
    return cli.CliConfig(
        command=workload.command, input_path=path, field=workload.field,
        involution=workload.involution,
        prime=PRIME if workload.field == "prime-field" else None,
        json_io=True, emit_transform=workload.command == "decompose")


def _calibrate() -> float:
    """Seconds the reference kernel takes now; it uses no congru code."""
    start = time.perf_counter()
    acc = Fraction(0)
    for x in _CAL_A:
        for y in _CAL_B:
            acc += x * y
    return time.perf_counter() - start


def _serve(config):
    """One timed request, and the kernel time just before it.  A
    collection first gives every request the same garbage-collector
    state, as a fresh CLI process would have."""
    gc.collect()
    kernel = _calibrate()
    start = time.perf_counter()
    res = sys.modules["congru.cli"].run(config)
    elapsed = time.perf_counter() - start
    return res, elapsed, kernel


# -- set-up ------------------------------------------------------------------------


def _generate(workload, seed: int, directory: str) -> dict:
    os.makedirs(directory)
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                    workload.name, str(seed), directory],
                   check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    with open(os.path.join(directory, "manifest.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _cold_start(workload, path: str) -> float:
    """A fresh interpreter imports congru.cli and serves one request."""
    code = ("import sys; from congru.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code,
                           *_cli_args(workload, path)],
                          env=_child_env(), cwd=ROOT, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"cold start exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')}")
    return elapsed


def _reference_start() -> float:
    """A fresh interpreter that only imports numpy, which congru.cli
    needs too; it runs no congru code."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=_child_env(),
                   cwd=ROOT, capture_output=True, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def _import_probe() -> tuple[float, float]:
    """(numpy, rest) seconds of importing congru.cli in a fresh
    interpreter; numpy is its cumulative time under -X importtime."""
    code = ("import time; t = time.perf_counter(); import congru.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    total = float(proc.stdout.split()[-1])
    numpy_s = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            numpy_s = int(parts[1]) / 1e6
    return numpy_s, total - numpy_s


def _context(congru) -> dict:
    import numpy

    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_head": _git_head(),
        "src_lines": src_lines,
        "congru_all": len(congru.__all__),
    }


def _git_head():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout of its own
    return lines[1]


# -- checking ----------------------------------------------------------------------


class Checker:
    """Runs the oracle once per distinct input; a repeated input passes
    when its output is byte-identical to the verified one."""

    def __init__(self, workload):
        self.workload = workload
        self.verified: dict[int, tuple[str, object]] = {}
        self.failures: list[str] = []
        self.seconds = 0.0

    def check(self, request: dict, res):
        import oracle

        start = time.perf_counter()
        digest = hashlib.sha256(
            f"{res.status}\0{res.out}\0{res.err}".encode()).hexdigest()
        seen = self.verified.get(request["index"])
        if seen is not None and seen[0] == digest:
            verdict = seen[1]
        else:
            with open(request["path"], encoding="utf-8") as fh:
                text = fh.read()
            verdict = oracle.check(request, self.workload.field, text,
                                   res.status, res.out, res.err)
            self.verified[request["index"]] = (digest, verdict)
            if verdict.kind != oracle.OK:
                self.failures.append(f"request {request['index']} "
                                     f"(n={request['n']}): "
                                     f"{verdict.reason}")
        self.seconds += time.perf_counter() - start
        return verdict


# -- the two kinds of run ---------------------------------------------------------


def _smallest(manifest: dict) -> dict:
    return min(manifest["requests"], key=lambda r: (r["n"], r["index"]))


def run_untraced(cli, workload, manifest: dict, seconds: float) -> dict:
    import oracle

    reqs = manifest["requests"]
    smallest = _smallest(manifest)
    checker = Checker(workload)
    t0 = time.perf_counter()
    cold, refs = [], [_reference_start()]
    for _ in range(COLD_STARTS):
        cold.append(_cold_start(workload, smallest["path"]))
        refs.append(_reference_start())
    # each cold start scaled by the reference starts just before and after
    cold_ref = [t * 2 * REF_START_S / (refs[i] + refs[i + 1])
                for i, t in enumerate(cold)]
    t1 = time.perf_counter()

    warm, _, _ = _serve(_config(cli, workload, smallest["path"]))
    checker.check(smallest, warm)

    configs = [_config(cli, workload, r["path"]) for r in reqs]
    latencies: list[float] = []
    kernels: list[float] = []
    busy = 0.0
    failed = 0
    correct = True
    began = time.perf_counter()
    while (busy < seconds or len(latencies) < MIN_REQUESTS) \
            and time.perf_counter() - began < WALL_CAP_S:
        i = len(latencies) % len(reqs)
        res, elapsed, kernel = _serve(configs[i])
        latencies.append(elapsed)
        kernels.append(kernel)
        busy += elapsed
        verdict = checker.check(reqs[i], res)
        failed += verdict.kind != oracle.OK
        correct &= verdict.kind != oracle.ERROR
    kernels.append(_calibrate())

    # each request scaled by the kernel times just before and after it
    ref = [t * 2 * CAL_REF_S / (kernels[i] + kernels[i + 1])
           for i, t in enumerate(latencies)]
    attempted = len(latencies)
    metrics = {
        "latency_p50_s": (statistics.median(ref), attempted),
        "latency_p90_s": (_p90(ref), attempted),
        "throughput_rps": (attempted / sum(ref), attempted),
        "setup_s": (statistics.median(cold_ref), len(cold)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "wall": {"latency_p50_s": statistics.median(latencies),
                 "latency_p90_s": _p90(latencies),
                 "throughput_rps": attempted / busy,
                 "setup_s": statistics.median(cold)},
        "host_slowdown": statistics.median(kernels) / CAL_REF_S,
        "fail_ratio": failed / attempted,
        "failures": checker.failures,
        "cold_starts_s": cold,
        "reference_starts_s": refs,
        "latencies_s": latencies,
        "kernels_s": kernels,
        "phases_s": {"cold_starts": t1 - t0,
                     "serve_and_check": time.perf_counter() - began,
                     "check": checker.seconds},
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def run_traced(cli, workload, manifest: dict, seconds: float,
               seed: int) -> tuple[dict, object]:
    import oracle
    from tracing import Tracer

    reqs = manifest["requests"][:TRACE_SET]
    checker = Checker(workload)
    tracer = Tracer()
    configs = [_config(cli, workload, r["path"]) for r in reqs]

    warm, _, _ = _serve(configs[0])
    checker.check(reqs[0], warm)

    plain: list[float] = []
    traced: list[float] = []
    mults_per_sweep: list[int] = []
    verdicts = {}
    outputs = {}
    failed = 0
    correct = True
    sweeps = 0
    began = time.perf_counter()
    while sweeps == 0 or (sum(plain) + sum(traced) < seconds
                          and time.perf_counter() - began < WALL_CAP_S):
        mults = 0
        for j, (req, config) in enumerate(zip(reqs, configs)):
            # alternate which side goes first, so drift cancels
            for with_spans in ((False, True) if (sweeps + j) % 2 == 0
                               else (True, False)):
                if with_spans:
                    tracer.request = sweeps * len(reqs) + j
                    tracer.install()
                    try:
                        res, elapsed, _ = _serve(config)
                    finally:
                        tracer.uninstall()
                    traced.append(elapsed)
                    mults += tracer.scalar_mults()
                else:
                    res, elapsed, _ = _serve(config)
                    plain.append(elapsed)
                verdict = checker.check(req, res)
                failed += verdict.kind != oracle.OK
                correct &= verdict.kind != oracle.ERROR
                verdicts[req["index"]] = verdict
                outputs.setdefault(req["index"], res.out)
        mults_per_sweep.append(mults)
        sweeps += 1

    served = len(traced)
    values = _layer_metrics(tracer.totals(), served, sum(mults_per_sweep))
    values["matrix.x_bits_max"] = max(v.x_bits for v in verdicts.values())
    values["float_unitary.warnings"] = (
        sum(v.warnings for v in verdicts.values()) / len(reqs))
    values["scalar.axpy_us"] = _axpy_us(workload, reqs, outputs, seed)
    probes = [_import_probe() for _ in range(IMPORT_PROBES)]
    values["cli.import.numpy_s"] = statistics.median(p[0] for p in probes)
    values["cli.import.rest_s"] = statistics.median(p[1] for p in probes)
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain))
    assert values.keys() == LAYER_UNITS.keys()
    per_sweep = _calls_per_sweep(tracer.spans, len(reqs))
    return {
        "correct": correct, "attempted": len(plain) + served,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u, "samples": served}
                    for k, u in LAYER_UNITS.items()},
        "trace_set": [r["index"] for r in reqs],
        "sweeps": sweeps,
        "counts_repeat_across_sweeps": (
            len(set(mults_per_sweep)) == 1
            and all(c == per_sweep[0] for c in per_sweep)),
        "untraced_targets": tracer.missing,
        "failures": checker.failures,
    }, tracer


def _calls_per_sweep(spans: list, per_sweep: int) -> list[dict]:
    out: list[dict] = []
    for name, _, _, _, request in spans:
        sweep = request // per_sweep
        while len(out) <= sweep:
            out.append({})
        out[sweep][name] = out[sweep].get(name, 0) + 1
    return out


ELIM = ("matrix.row_echelon_transform", "matrix.rank", "matrix.nullspace",
        "matrix.solve", "matrix.inverse")
ASSEMBLY = ("matrix.from_blocks", "matrix.direct_sum", "matrix.block")


def _layer_metrics(totals: dict, served: int, scalar_mults: int) -> dict:
    """Per-request values of the span-derived layer metrics."""
    def per_req(field, *names):
        return sum(totals.get(n, {}).get(field, 0) for n in names) / served

    mul_self = per_req("self_s", "matrix.mul") * served
    out = {
        "matrix.mul.calls": per_req("calls", "matrix.mul"),
        "matrix.mul.self_s": mul_self / served,
        "matrix.mul.scalar_mults": scalar_mults / served,
        "matrix.mul.ns_per_mult": (
            1e9 * mul_self / scalar_mults if scalar_mults else 0.0),
        "matrix.elim.calls": per_req("calls", *ELIM),
        "matrix.elim.self_s": per_req("self_s", *ELIM),
        "matrix.rank.calls": per_req("calls", "matrix.rank"),
        "matrix.star.self_s": per_req("self_s", "matrix.star"),
        "matrix.assembly.self_s": per_req("self_s", *ASSEMBLY),
        "matrix.parse.self_s": per_req(
            "self_s", "matrix.from_json_dict", "matrix.from_text"),
        "matrix.render.self_s": per_req(
            "self_s", "matrix.to_json_dict", "matrix.to_text"),
        "cli.run.self_s": per_req("self_s", "cli.run"),
        "float_unitary.svd.calls": per_req("calls", "float_unitary.svd"),
        "float_unitary.svd.s": per_req("s", "float_unitary.svd"),
        "float_unitary.residuals.s": per_req("s", "float_unitary.residuals"),
        "float_unitary.parse.s": per_req("s", "float_unitary.parse"),
    }
    for name in ("regularize.stage", "sparse_form.reduce_cde",
                 "float_unitary.float_stage"):
        out[f"{name}.calls"] = per_req("calls", name)
        out[f"{name}.self_s"] = per_req("self_s", name)
    for name in ("sparse_form.canonical_sparse_form",
                 "sparse_form.full_decomposition",
                 "float_unitary.float_regularize"):
        out[f"{name}.self_s"] = per_req("self_s", name)
    return out


def _axpy_us(workload, reqs: list[dict], outputs: dict, seed: int) -> float:
    """Median time of one a - b*c in the program's own scalar type, on
    operands sampled from the traced requests' inputs (a) and
    transforms (b, c); the float path samples its input entries."""
    import oracle
    from congru import Matrix

    rng = random.Random(seed)
    ops = []
    for req in reqs[:3]:
        with open(req["path"], encoding="utf-8") as fh:
            a_obj = json.load(fh)
        if workload.field == "complex":
            entries = [complex(e.replace("*i", "j"))
                       for e in a_obj["entries"]]
            ins = outs = entries
        else:
            spec = oracle.field_spec(workload.field)
            a = Matrix.from_json_dict(spec, a_obj)
            x = Matrix.from_json_dict(
                spec, json.loads(outputs[req["index"]])["transform"])
            ins = [a[i, j] for i in range(a.rows) for j in range(a.cols)]
            outs = [x[i, j] for i in range(x.rows) for j in range(x.cols)]
        ops += [(rng.choice(ins), rng.choice(outs), rng.choice(outs))
                for _ in range(100)]
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            for a, b, c in ops:
                a - b * c
        if time.perf_counter() - start > 0.02:
            break
        reps *= 2
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            for a, b, c in ops:
                a - b * c
        times.append((time.perf_counter() - start) / (reps * len(ops)))
    return statistics.median(times) * 1e6


# -- entry points ------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    congru = _load_congru()
    cli = sys.modules["congru.cli"]
    work = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    try:
        manifest = _generate(workload, seed, work)
        if trace:
            result, tracer = run_traced(cli, workload, manifest, seconds,
                                        seed)
        else:
            result, tracer = run_untraced(cli, workload, manifest,
                                          seconds), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "input_fingerprint": manifest["fingerprint"],
        "distinct_inputs": len(manifest["requests"]),
        "context": _context(congru), **result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    return record


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    print(f"  input fingerprint {record['input_fingerprint']}")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']})")
    for name, value in record.get("wall", {}).items():
        print(f"  {'wall ' + name:42s} {value:.6g} (not scaled)")
    if "host_slowdown" in record:
        print(f"  host slowdown {record['host_slowdown']:.4g} "
              f"(kernel time / {CAL_REF_S} s)")
    print(f"  attempted {record['attempted']} failed {record['failed']} "
          f"correct {record['correct']}")
    for f in record["failures"]:
        print(f"  failure: {f}")


def _last_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}})


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process of its own so that peak
    RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, m in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds,
                                     bool(args.trace))))
            return 0
        record = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_record(record)
    print(f"  {'fail_ratio':42s} {record['failed'] / record['attempted']:.6g}"
          f" ratio (samples {record['attempted']})")
    print(_last_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
