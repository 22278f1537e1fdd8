"""Command line interface: output grammar, exit codes, JSON mode."""

import io
import json
import os
import subprocess
import sys

import pytest

import congru
from congru import SuiteReport
from congru.cli import main

from conftest import MALFORMED_NUMBERS

WORKED = "2 2\n1 -i\ni 1\n"
WORKED_FLOAT = "2 2\n1 -1i\n1i 1\n"
GAUSS = ["--field", "gaussian-rational"]
CONJ = GAUSS + ["--involution", "conjugate"]


@pytest.fixture
def worked(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text(WORKED)
    return str(p)


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestInvariants:
    def test_conjugation(self, capsys, worked):
        status, out, _ = run_cli(capsys, ["invariants", *CONJ, worked])
        assert status == 0
        assert out == "nu=1 zeta=1 kappa=0 rho=1\n"

    def test_identity(self, capsys, worked):
        status, out, _ = run_cli(capsys, ["invariants", *GAUSS, worked])
        assert status == 0
        assert out == "nu=1 zeta=0 kappa=1 rho=0\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(WORKED))
        status, out, _ = run_cli(capsys, ["invariants", *CONJ, "-"])
        assert status == 0
        assert out.startswith("nu=1 ")


class TestDecompose:
    def test_conjugation_summary(self, capsys, worked):
        status, out, _ = run_cli(capsys, ["decompose", *CONJ, worked])
        assert status == 0
        assert out.splitlines()[0] == "regular 1x1; J1 x1"
        assert "regular:\n1 1\n1\n" in out

    def test_identity_summary(self, capsys, worked):
        status, out, _ = run_cli(capsys, ["decompose", *GAUSS, worked])
        assert status == 0
        assert out.splitlines()[0] == "J2 x1"
        assert "regular:\n0 0\n" in out

    def test_emit_transform(self, capsys, worked):
        status, out, _ = run_cli(
            capsys, ["decompose", *CONJ, "--emit-transform", worked])
        assert status == 0
        assert "transform:\n2 2\n" in out

    def test_prime_field(self, capsys, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("2 2\n3 1\n1 5\n")
        status, out, _ = run_cli(
            capsys,
            ["decompose", "--field", "prime-field", "--prime", "7", str(p)])
        assert status == 0
        assert out.splitlines()[0] == "regular 1x1; J1 x1"


class TestRegularize:
    def test_grammar(self, capsys, worked):
        status, out, _ = run_cli(capsys, ["regularize", *CONJ, worked])
        assert status == 0
        assert out == "tau=1\nm=1,0\nregular:\n1 1\n1\n"

    def test_nonsingular(self, capsys, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1 1\n5\n")
        status, out, _ = run_cli(capsys, ["regularize", str(p)])
        assert status == 0
        assert out.startswith("tau=0\nm=\n")


class TestSparseForm:
    def test_sections(self, capsys, worked):
        status, out, _ = run_cli(
            capsys, ["sparse-form", *GAUSS, "--emit-transform", worked])
        assert status == 0
        assert "m=1,1\n" in out
        assert "nilpotent:\n2 2\n0 1\n0 0\n" in out
        assert "transform:\n2 2\n1/2 -1/2*i\n1/2 1/2*i\n" in out


class TestPencil:
    def test_sections(self, capsys, tmp_path):
        p = tmp_path / "j2.txt"
        p.write_text("2 2\n0 1\n0 0\n")
        status, out, _ = run_cli(
            capsys, ["pencil", *CONJ, "--emit-transform", str(p)])
        assert status == 0
        assert out.splitlines()[0] == "J2 x1"
        assert "jordan constant:\n2 2\n0 1\n0 0\n" in out
        assert "jordan lambda:\n2 2\n0 0\n1 0\n" in out
        assert "replaced constant:" in out
        assert "replaced lambda:" in out
        assert "replaced transform:" in out


class TestFloatRegularize:
    def test_conjugation(self, capsys, tmp_path):
        p = tmp_path / "wf.txt"
        p.write_text(WORKED_FLOAT)
        status, out, _ = run_cli(
            capsys,
            ["float-regularize", "--involution", "conjugate", str(p)])
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "m=1,0"
        assert lines[1] == "regular:"
        assert lines[-2].startswith("pattern_residual=")
        assert lines[-1].startswith("unitarity_residual=")

    def test_real_mode(self, capsys, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("2 2\n0 1\n0 0\n")
        status, out, _ = run_cli(
            capsys, ["float-regularize", "--field", "real", str(p)])
        assert status == 0
        assert out.splitlines()[0] == "m=1,1"

    def test_borderline_warning_on_stderr(self, capsys, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("2 2\n1 0\n0 5e-7\n")
        status, out, err = run_cli(
            capsys,
            ["float-regularize", "--field", "real", "--tol", "1e-6",
             str(p)])
        assert status == 0
        assert "warning: borderline rank decision" in err
        assert "warning" not in out

    def test_real_conjugate_conflict(self, capsys, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("1 1\n1\n")
        status, _, err = run_cli(
            capsys,
            ["float-regularize", "--field", "real",
             "--involution", "conjugate", str(p)])
        assert status == 1
        assert "identity" in err

    def test_nonfinite_entry(self, capsys, tmp_path):
        p = tmp_path / "inf.txt"
        p.write_text("1 1\ninf\n")
        status, _, err = run_cli(
            capsys, ["float-regularize", "--field", "real", str(p)])
        assert status == 1
        assert "finite" in err

    def test_infinite_tol(self, capsys, tmp_path):
        p = tmp_path / "n.txt"
        p.write_text("2 2\n0 1\n0 0\n")
        status, _, err = run_cli(
            capsys, ["float-regularize", "--field", "real",
                     "--tol", "1e400", str(p)])
        assert status == 1
        assert "finite" in err

    def test_huge_header_fails_on_short_row(self, capsys, tmp_path):
        # the header alone would ask for ~596 GiB; the short row fails first
        p = tmp_path / "big.txt"
        p.write_text("200000 200000\n1 2\n")
        status, _, err = run_cli(
            capsys, ["float-regularize", "--field", "real", str(p)])
        assert status == 1
        assert err.startswith("error: line 2,")

    def test_json_entry_too_large_for_float(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text('{"rows": 1, "cols": 1, "entries": [1%s]}' % ("0" * 400))
        status, _, err = run_cli(
            capsys, ["float-regularize", "--field", "real", "--json",
                     str(p)])
        assert status == 1
        assert "entry 0" in err


class TestVerify:
    def test_roundtrip(self, capsys):
        status, out, _ = run_cli(capsys, ["verify", "--seed", "3",
                                          "--trials", "6"])
        assert status == 0
        assert out == "suite=roundtrip seed=3 trials=6\npassed 6/6\n"

    def test_invariance_with_input(self, capsys, worked):
        status, out, _ = run_cli(
            capsys, ["verify", *CONJ, "--trials", "4", worked])
        assert status == 0
        assert out.splitlines()[0] == "suite=invariance seed=0 trials=4"

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CONGRU_SEED", "9")
        _, out, _ = run_cli(capsys, ["verify", "--trials", "2"])
        assert out.splitlines()[0] == "suite=roundtrip seed=9 trials=2"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CONGRU_SEED", "9")
        _, out, _ = run_cli(capsys, ["verify", "--seed", "4",
                                     "--trials", "2"])
        assert out.splitlines()[0] == "suite=roundtrip seed=4 trials=2"

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CONGRU_SEED", "lots")
        status, _, err = run_cli(capsys, ["verify", "--trials", "2"])
        assert status == 1
        assert "CONGRU_SEED" in err

    def test_failures_exit_two(self, capsys, monkeypatch):
        fake = SuiteReport(total=2, passed=1,
                           failures=("trial 1: transform singular",))
        monkeypatch.setattr("congru.cli.roundtrip_suite",
                            lambda *a, **k: fake)
        status, out, _ = run_cli(capsys, ["verify", "--trials", "2"])
        assert status == 2
        assert "passed 1/2" in out
        assert "fail: trial 1: transform singular" in out

    def test_zero_trials_rejected(self, capsys):
        status, _, err = run_cli(capsys, ["verify", "--trials", "0"])
        assert status == 1
        assert "--trials" in err

    @pytest.mark.parametrize("flags", [
        ["--field", "prime-field"],
        ["--field", "prime-field", "--prime", "7"],
        ["--field", "gaussian-rational"],
        ["--field", "rational", "--involution", "conjugate"],
        ["--involution", "conjugate"],
        ["--prime", "7"],
    ])
    def test_field_flags_need_an_input(self, capsys, flags):
        # without a matrix the round-trip suite runs over its own fields
        status, out, err = run_cli(capsys, ["verify", *flags,
                                            "--trials", "1"])
        assert status == 1
        assert out == ""
        assert err == ("error: --field, --involution and --prime apply "
                       "only with an input matrix\n")

    def test_default_field_flags_without_input(self, capsys):
        status, _, _ = run_cli(capsys, ["verify", "--field", "rational",
                                        "--involution", "identity",
                                        "--trials", "1"])
        assert status == 0


def test_closed_stdout_exits_quietly(tmp_path):
    # 200 x 200 of rendered floats is far more than a pipe buffer holds,
    # so the write hits the closed end while the process still runs
    n = 200
    p = tmp_path / "diag.txt"
    p.write_text(f"{n} {n}\n" + "".join(
        " ".join("1" if i == j else "0" for j in range(n)) + "\n"
        for i in range(n)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(congru.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from congru.cli import main; sys.exit(main())",
         "float-regularize", "--field", "real", str(p)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# One process: exact decompose in text and JSON, a check of what is
# loaded, then float-regularize; prints one JSON line of the results.
_EXACT_THEN_FLOAT = """
import contextlib, io, json, sys
import congru, congru.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = congru.cli.main(list(argv))
    return status, out.getvalue()

text, doc, flt = sys.argv[1:]
statuses = [run("decompose", "--field", "gaussian-rational",
                "--involution", "conjugate", *args)[0]
            for args in ([text], ["--json", doc])]
loaded = ["numpy" in sys.modules, "congru.float_unitary" in sys.modules]
print(json.dumps({"statuses": statuses, "loaded": loaded,
                  "float": run("float-regularize", "--involution",
                               "conjugate", flt)}))
"""


def test_exact_commands_do_not_load_numpy(tmp_path, worked):
    doc = tmp_path / "w.json"
    doc.write_text(json.dumps({"rows": 2, "cols": 2,
                               "entries": ["1", "-i", "i", "1"]}))
    flt = tmp_path / "f.txt"
    flt.write_text(WORKED_FLOAT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(congru.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_THEN_FLOAT, worked, str(doc),
         str(flt)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["statuses"] == [0, 0]
    assert got["loaded"] == [False, True]
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from congru.cli import main; sys.exit(main())",
         "float-regularize", "--involution", "conjugate", str(flt)],
        capture_output=True, text=True, env=env, timeout=120)
    assert got["float"] == [fresh.returncode, fresh.stdout]
    assert got["float"][1].startswith("m=")


class TestJsonMode:
    def test_decompose_json(self, capsys, tmp_path, worked):
        src = json.loads(
            json.dumps({"rows": 2, "cols": 2,
                        "entries": ["1", "-i", "i", "1"]}))
        p = tmp_path / "w.json"
        p.write_text(json.dumps(src))
        status, out, _ = run_cli(
            capsys, ["decompose", "--json", *CONJ, str(p)])
        assert status == 0
        doc = json.loads(out)
        assert doc["summary"] == "regular 1x1; J1 x1"
        assert doc["multiplicities"] == {"1": 1}
        assert doc["regular"]["entries"] == ["1"]

    def test_matrix_json_idempotent(self, capsys, tmp_path):
        p = tmp_path / "a.json"
        p.write_text(json.dumps(
            {"rows": 2, "cols": 2, "entries": ["0", "1", "0", "0"]}))
        status, out, _ = run_cli(
            capsys, ["sparse-form", "--json", str(p)])
        assert status == 0
        doc = json.loads(out)
        q = tmp_path / "b.json"
        q.write_text(json.dumps(doc["nilpotent"]))
        status2, out2, _ = run_cli(
            capsys, ["sparse-form", "--json", str(q)])
        assert status2 == 0
        assert json.loads(out2)["nilpotent"] == doc["nilpotent"]

    def test_verify_json(self, capsys):
        status, out, _ = run_cli(
            capsys, ["verify", "--json", "--seed", "1", "--trials", "3"])
        assert status == 0
        doc = json.loads(out)
        assert doc == {"suite": "roundtrip", "seed": 1, "trials": 3,
                       "passed": 3, "failures": []}

    def test_bad_json_document(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows": 2}')
        status, _, err = run_cli(capsys, ["invariants", "--json", str(p)])
        assert status == 1
        assert "rows, cols, entries" in err


class TestErrors:
    def test_parse_error_position(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n1 2\n3 x\n")
        status, _, err = run_cli(capsys, ["invariants", str(p)])
        assert status == 1
        assert err == "error: line 3, column 3: invalid scalar 'x'\n"

    def test_missing_file(self, capsys, tmp_path):
        status, _, err = run_cli(
            capsys, ["invariants", str(tmp_path / "nope.txt")])
        assert status == 1
        assert err.startswith("error: cannot read ")

    def test_rational_conjugate_conflict(self, capsys, worked):
        status, _, err = run_cli(
            capsys,
            ["invariants", "--involution", "conjugate", worked])
        assert status == 1
        assert "gaussian-rational" in err

    def test_prime_flag_misuse(self, capsys, worked):
        status, _, err = run_cli(
            capsys, ["invariants", "--prime", "7", worked])
        assert status == 1
        assert "--prime" in err

    def test_prime_field_needs_prime(self, capsys, worked):
        status, _, err = run_cli(
            capsys, ["invariants", "--field", "prime-field", worked])
        assert status == 1
        assert "prime" in err


_PRIMES = (None, 7, 8, 2**31 + 11, -7, 0)
_PRIME_ONLY = "--prime is only valid with --field prime-field"
_NEEDS_PRIME = "--field prime-field requires --prime"
_CONJ = "conjugation requires --field gaussian-rational"
# (field, involution) -> the stderr text for each of _PRIMES, or None
# where the flags name a field
_FLAG_ERRORS = {
    ("rational", "identity"): [None] + [_PRIME_ONLY] * 5,
    ("rational", "conjugate"): [_CONJ] + [_PRIME_ONLY] * 5,
    ("gaussian-rational", "identity"): [None] + [_PRIME_ONLY] * 5,
    ("gaussian-rational", "conjugate"): [None] + [_PRIME_ONLY] * 5,
    ("prime-field", "identity"): [
        _NEEDS_PRIME, None, "8 is not prime",
        "prime modulus must be below 2**31", "-7 is not prime",
        "0 is not prime"],
    ("prime-field", "conjugate"): [_NEEDS_PRIME] + [_CONJ] * 5,
}


@pytest.mark.parametrize("field, involution, prime, error", [
    (f, i, p, e) for (f, i), errors in _FLAG_ERRORS.items()
    for p, e in zip(_PRIMES, errors)])
def test_field_flag_combinations(capsys, tmp_path, field, involution, prime,
                                 error):
    p = tmp_path / "a.txt"
    p.write_text("2 2\n0 1\n1 0\n")
    prime_flag = [] if prime is None else ["--prime", str(prime)]
    status, out, err = run_cli(capsys, [
        "decompose", "--field", field, "--involution", involution,
        *prime_flag, str(p)])
    if error is None:
        assert (status, out, err) == (
            0, "regular 2x2\nregular:\n2 2\n0 1\n1 0\n", "")
    else:
        assert (status, out, err) == (1, "", f"error: {error}\n")


class TestArgv:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    # the number flags take the matrix entries' grammar: no "_"
    # separators, no non-ASCII digits
    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--seed", "1_0", "--trials", "1"], "--seed"),
        (["verify", "--seed", "١٢", "--trials", "1"], "--seed"),
        (["verify", "--trials", "1_0"], "--trials"),
        (["verify", "--trials", "２"], "--trials"),
        (["decompose", "--field", "prime-field", "--prime", "٧"], "--prime"),
        (["decompose", "--field", "prime-field", "--prime", "1_1"],
         "--prime"),
        (["float-regularize", "--tol", "1_0e-3"], "--tol"),
        (["float-regularize", "--tol", "١e-3"], "--tol"),
    ], ids=repr)
    def test_bad_number_flag(self, capsys, tmp_path, argv, flag):
        p = tmp_path / "a.txt"
        p.write_text("2 2\n0 1\n0 0\n")
        status, out, err = run_cli(capsys, [*argv, str(p)])
        assert (status, out) == (1, "")
        assert f"error: argument {flag}: invalid " in err

    # a huge bad token is quoted short: int() refuses digits past its
    # limit, and the message cuts the token
    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "9" * 5000, "--trials", "1"],
        ["verify", "--seed", "x" * 5000, "--trials", "1"],
        ["verify", "--trials", "9" * 5000],
        ["verify", "--trials", "x" * 5000],
        ["decompose", "--field", "prime-field", "--prime", "7" * 5000],
        ["decompose", "--field", "prime-field", "--prime", "x" * 5000],
        ["float-regularize", "--tol", "x" * 5000],
    ], ids=["seed-digits", "seed-junk", "trials-digits", "trials-junk",
            "prime-digits", "prime-junk", "tol-junk"])
    def test_huge_bad_number_flag(self, capsys, tmp_path, argv):
        p = tmp_path / "a.txt"
        p.write_text("2 2\n0 1\n0 0\n")
        status, out, err = run_cli(capsys, [*argv, str(p)])
        assert (status, out) == (1, "")
        assert "_integer" not in err
        assert len(err.encode()) < 1000

    @pytest.mark.parametrize("env", ["1_0", "١٢", " 12", "1.0"])
    def test_bad_env_seed_token(self, capsys, monkeypatch, env):
        monkeypatch.setenv("CONGRU_SEED", env)
        status, out, err = run_cli(capsys, ["verify", "--trials", "1"])
        assert (status, out) == (1, "")
        assert err == f"error: CONGRU_SEED must be an integer, got {env!r}\n"

    def test_env_seed_past_the_int_digit_limit(self, capsys, monkeypatch):
        # the token matches the integer grammar, but int() refuses it
        env = "9" * 5000
        monkeypatch.setenv("CONGRU_SEED", env)
        status, out, err = run_cli(capsys, ["verify", "--trials", "1"])
        assert (status, out) == (1, "")
        assert err == ("error: CONGRU_SEED must be an integer, got "
                       f"'{env[:39]}…\n")

    def test_signed_number_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("CONGRU_SEED", "-5")
        _, out, _ = run_cli(capsys, ["verify", "--trials", "+1"])
        assert out.splitlines()[0] == "suite=roundtrip seed=-5 trials=1"


class TestHostileInput:
    """Malformed or hostile input exits 1 with an error line, never 2."""

    @pytest.mark.parametrize("command", ["invariants", "regularize",
                                         "sparse-form", "decompose",
                                         "pencil", "verify"])
    def test_non_square_exits_one(self, capsys, tmp_path, command):
        p = tmp_path / "r.txt"
        p.write_text("2 3\n1 2 3\n4 5 6\n")
        extra = ["--trials", "1"] if command == "verify" else []
        status, out, err = run_cli(capsys, [command, *extra, str(p)])
        assert status == 1
        assert out == ""
        assert err == ("error: line 1, column 1: "
                       "expected a square matrix, found 2x3\n")

    @pytest.mark.parametrize("json_io", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["decompose", "float-regularize"])
    def test_zero_width_header(self, capsys, tmp_path, command, json_io):
        # rejected at the header: no loop over the million declared rows
        p = tmp_path / "wide.in"
        p.write_text('{"rows": 1000000, "cols": 0, "entries": []}'
                     if json_io else "1000000 0\n")
        flags = ["--json"] if json_io else []
        status, _, err = run_cli(capsys, [command, *flags, str(p)])
        assert status == 1
        assert err.startswith("error: line 1, column 1: expected a square")

    @pytest.mark.parametrize("command", ["decompose", "float-regularize"])
    def test_json_integer_past_digit_limit(self, capsys, tmp_path, command):
        p = tmp_path / "long.json"
        p.write_text('{"rows": 1, "cols": 1, "entries": [1%s]}'
                     % ("0" * 5000))
        status, _, err = run_cli(capsys, [command, "--json", str(p)])
        assert status == 1
        assert err.startswith("error: invalid JSON: ")

    def test_deeply_nested_json(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        status, _, err = run_cli(capsys, ["invariants", "--json", str(p)])
        assert status == 1
        assert err.startswith("error: invalid JSON: ")

    def test_exponent_literal_over_q(self, capsys, tmp_path):
        p = tmp_path / "exp.txt"
        p.write_text("1 1\n1e5000\n")
        status, _, err = run_cli(capsys, ["decompose", str(p)])
        assert status == 1
        assert err == "error: line 2, column 1: invalid scalar '1e5000'\n"

    @pytest.mark.parametrize("command", ["decompose", "float-regularize"])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_huge_bad_token_is_quoted_short(self, capsys, tmp_path, command,
                                            form):
        p = tmp_path / "huge"
        if form == "text":
            p.write_text("1 1\n" + "x" * 2_000_000 + "\n")
            argv = [command, str(p)]
        else:
            p.write_text(json.dumps(
                {"rows": 1, "cols": 1, "entries": [list(range(300_000))]}))
            argv = [command, "--json", str(p)]
        status, _, err = run_cli(capsys, argv)
        assert status == 1
        assert err.startswith("error: line ")
        assert "…" in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("field_flag, doc", MALFORMED_NUMBERS)
    def test_numbers_outside_the_grammar(self, capsys, tmp_path, field_flag,
                                         doc):
        p = tmp_path / "bad.in"
        p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc,
                     encoding="utf-8")
        if field_flag in ("real", "complex"):
            argv = ["float-regularize", "--field", field_flag]
        else:
            argv = ["decompose", "--field", field_flag]
            if field_flag == "prime-field":
                argv += ["--prime", "7"]
        if isinstance(doc, dict):
            argv.append("--json")
        status, out, err = run_cli(capsys, [*argv, str(p)])
        assert (status, out) == (1, "")
        assert err.startswith("error: line ")

    @pytest.mark.parametrize("field_flag", [
        ["--field", "rational"], GAUSS, ["--field", "prime-field",
                                         "--prime", "7"]], ids=str)
    def test_ascii_whitespace_pads_json_strings(self, capsys, tmp_path,
                                                field_flag):
        results = []
        for entry in (" 7 ", "7", "\t7\n"):
            p = tmp_path / "one.json"
            p.write_text(json.dumps({"rows": 1, "cols": 1,
                                     "entries": [entry]}))
            results.append(run_cli(capsys, ["decompose", *field_flag,
                                            "--json", str(p)]))
        assert results[0][0] == 0 and results[0] == results[1] == results[2]

    def test_invalid_utf8(self, capsys, tmp_path):
        p = tmp_path / "bin.txt"
        p.write_bytes(b"1 1\n\xff\n")
        status, _, err = run_cli(capsys, ["invariants", str(p)])
        assert status == 1
        assert err.startswith("error: cannot read ")
