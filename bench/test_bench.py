"""Tests of the benchmark itself: seeded inputs, the oracle, the tracer
and the agreement of BENCHMARK.json with what run.py prints."""

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from congru import FieldSpec, Matrix  # noqa: E402
from congru.cli import CliConfig  # noqa: E402


def _head(name, seed, count=2):
    return list(itertools.islice(
        workloads.requests(workloads.WORKLOADS[name], seed), count))


def test_fingerprint_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        same = workloads.fingerprint(_head(name, 7))
        assert same == workloads.fingerprint(_head(name, 7)), name
        assert same != workloads.fingerprint(_head(name, 8)), name


def test_design_follows_the_recipe():
    for w in workloads.WORKLOADS.values():
        shapes = workloads.design(w)
        assert len(shapes) == w.pool
        lo, hi = w.sizes
        for s in shapes:
            assert lo <= s.n <= hi
            assert 0 <= s.regular <= s.n // 3
            assert s.regular + sum(s.jordan) == s.n
            assert all(1 <= k <= w.max_jordan for k in s.jordan)
            assert 1e-4 <= s.spread <= 1.0
        # every part of the range is served
        assert min(s.n for s in shapes) - lo <= (hi - lo) // 4
        assert hi - max(s.n for s in shapes) <= (hi - lo) // 4


def test_m_counts_blocks_at_least_k():
    shape = workloads.Shape(9, 0, (1, 3, 5))
    assert shape.m == [3, 2, 2, 1, 1, 0]


def _serve(name, tmp_path):
    w = workloads.WORKLOADS[name]
    manifest = workloads.write_inputs(w, 3, str(tmp_path))
    assert manifest["fingerprint"] == workloads.fingerprint(
        workloads.requests(w, 3))
    req = min(manifest["requests"], key=lambda r: r["n"])
    res = sys.modules["congru.cli"].run(run._config(
        sys.modules["congru.cli"], w, req["path"]))
    with open(req["path"], encoding="utf-8") as fh:
        text = fh.read()
    return w, req, text, res


def test_oracle_accepts_the_answer_and_rejects_a_wrong_one(tmp_path):
    w, req, text, res = _serve("exact-gaussian", tmp_path)
    ok = oracle.check(req, w.field, text, res.status, res.out, res.err)
    assert ok.kind == oracle.OK, ok.reason

    out = json.loads(res.out)
    x = out["transform"]["entries"]
    x[0] = "7" if x[0] != "7" else "5"
    bad = oracle.check(req, w.field, text, 0, json.dumps(out), "")
    assert bad.kind == oracle.ERROR

    wrong = dict(req, jordan=req["jordan"] + [1])
    assert oracle.check(wrong, w.field, text, res.status, res.out,
                        res.err).kind == oracle.ERROR
    assert oracle.check(req, w.field, text, 2, "", "boom").kind \
        == oracle.ERROR


def test_tracer_counts_products_and_restores_bindings():
    import congru.sparse_form

    # the package attribute congru.regularize is the function
    regularize_mod = sys.modules["congru.regularize"]
    spec = FieldSpec.rationals()
    a = Matrix.from_rows(spec, [[1, 0], [2, 3]])
    b = Matrix.from_rows(spec, [[0, 4], [5, 6]])
    stage_before = congru.sparse_form.stage
    tracer = Tracer()
    tracer.install()
    try:
        assert congru.sparse_form.stage is not stage_before
        a * b
    finally:
        tracer.uninstall()
    assert congru.sparse_form.stage is stage_before
    assert regularize_mod.stage is stage_before
    # column nnz of a = (2, 1), row nnz of b = (1, 2)
    assert tracer.scalar_mults() == 2 * 1 + 1 * 2
    assert tracer.totals()["matrix.mul"]["calls"] == 1
    assert not tracer.missing


def test_benchmark_json_matches_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.LAYER_UNITS
    assert spec["command"][1] == "bench/run.py"


def test_config_matches_the_cli_flags():
    w = workloads.WORKLOADS["exact-prime"]
    config = run._config(sys.modules["congru.cli"], w, "in.json")
    assert config == CliConfig(
        command="decompose", input_path="in.json", field="prime-field",
        involution="identity", prime=workloads.PRIME, json_io=True,
        emit_transform=True)
    assert run._cli_args(w, "in.json") == [
        "decompose", "--field", "prime-field", "--involution", "identity",
        "--json", "--prime", str(workloads.PRIME), "--emit-transform",
        "in.json"]
