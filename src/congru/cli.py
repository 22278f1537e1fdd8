"""Command-line surface.

One subcommand per pipeline entry point.  Field and involution are
always explicit flags, never inferred from the entries: a real matrix
read over the Gaussian rationals with conjugation is a different
problem than the same file over the rationals, and the answers
differ.  --json switches input and output together.

Exit status: 0 on success, 1 on bad input or inconsistent flags
(parse errors carry line and column), 2 on internal failure or a
failed verification suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .float_unitary import (FloatMode, _read_float, _real_entry,
                            float_regularize, pattern_residual,
                            render_float_matrix, render_float_scalar,
                            unitarity_residual)
from .matrix import (Matrix, MatrixParseError, _read_json, _read_text,
                     _write_json, invariants)
from .pencil import pencil_regularize
from .regularize import regularize
from .scalar import (_INTEGER_RE, FieldKind, FieldSpec, Involution,
                     _quote_token)
from .sparse_form import canonical_sparse_form, full_decomposition
from .verify import invariance_suite, roundtrip_suite

if TYPE_CHECKING:
    import numpy as np

# the flag values are the library's own names
_EXACT_FIELDS = tuple(kind.value for kind in FieldKind)
_INVOLUTIONS = tuple(inv.value for inv in Involution)
_FLOAT_FIELDS = ("real", "complex")


class CliInputError(ValueError):
    """Bad flags or unreadable input; maps to exit status 1."""


@dataclass(frozen=True)
class CliConfig:
    command: str
    input_path: str | None = None
    field: str = "rational"
    involution: str = "identity"
    prime: int | None = None
    json_io: bool = False
    tol: float | None = None
    seed: int | None = None
    trials: int = 25
    emit_transform: bool = False


@dataclass(frozen=True)
class CliResult:
    status: int
    out: str = ""
    err: str = ""


# -- input plumbing ------------------------------------------------------------


def _resolve_field(config: CliConfig) -> FieldSpec:
    if config.prime is not None and config.field != "prime-field":
        raise CliInputError("--prime is only valid with --field prime-field")
    if config.field == "prime-field" and config.prime is None:
        raise CliInputError("--field prime-field requires --prime")
    if (config.involution == "conjugate"
            and config.field != "gaussian-rational"):
        raise CliInputError("conjugation requires --field gaussian-rational")
    try:
        return FieldSpec(FieldKind(config.field),
                         Involution(config.involution), config.prime)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def _resolve_float_mode(config: CliConfig) -> FloatMode:
    if config.field == "real":
        if config.involution == "conjugate":
            raise CliInputError(
                "conjugation over the reals is the identity; "
                "use --involution identity")
        mode = "real-identity"
    else:
        mode = ("complex-conjugation" if config.involution == "conjugate"
                else "complex-identity")
    try:
        return FloatMode(mode, config.tol)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def _read_document(config: CliConfig):
    """The input text, or under --json the decoded JSON value."""
    if config.input_path is None:
        raise CliInputError("this command requires a matrix input")
    try:
        if config.input_path == "-":
            text = sys.stdin.read()
        else:
            with open(config.input_path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {config.input_path}: {exc}"
                            ) from None
    if not config.json_io:
        return text
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer past the int-digit limit
        raise CliInputError(f"invalid JSON: {exc}") from None


def _load_exact(config: CliConfig, field: FieldSpec) -> Matrix:
    read = Matrix.from_json_dict if config.json_io else Matrix.from_text
    return read(field, _read_document(config), square=True)


def _load_float(config: CliConfig, complex_entries: bool) -> np.ndarray:
    import numpy as np  # only the float command needs it

    a = _read_float(_read_json if config.json_io else _read_text,
                    _read_document(config), complex_entries, square=True)
    if a.size and not np.isfinite(a).all():
        raise CliInputError("matrix entries must be finite")
    return a


# -- renderers -----------------------------------------------------------------


def _mat_text(label: str, m: Matrix) -> str:
    return f"{label}:\n{m.to_text()}".rstrip("\n")


def _float_mat_json(a: np.ndarray) -> dict:
    return _write_json(*a.shape, a, render_float_scalar)


def _summary(regular_rows: int, mults: dict[int, int]) -> str:
    parts = []
    if regular_rows or not mults:
        parts.append(f"regular {regular_rows}x{regular_rows}")
    parts.extend(f"J{k} x{mults[k]}" for k in sorted(mults))
    return "; ".join(parts)


def _m_line(m) -> str:
    return "m=" + ",".join(str(v) for v in m)


# -- subcommands ---------------------------------------------------------------


def _cmd_invariants(config: CliConfig) -> CliResult:
    a = _load_exact(config, _resolve_field(config))
    inv = invariants(a)
    if config.json_io:
        out = json.dumps({"nu": inv.nu, "zeta": inv.zeta,
                          "kappa": inv.kappa, "rho": inv.rho}, indent=2)
    else:
        out = (f"nu={inv.nu} zeta={inv.zeta} "
               f"kappa={inv.kappa} rho={inv.rho}")
    return CliResult(0, out)


def _cmd_regularize(config: CliConfig) -> CliResult:
    a = _load_exact(config, _resolve_field(config))
    res = regularize(a)
    if config.json_io:
        out = json.dumps({
            "tau": res.tau,
            "m": list(res.m),
            "regular": res.regular_part.to_json_dict(),
        }, indent=2)
    else:
        out = "\n".join([f"tau={res.tau}", _m_line(res.m),
                         _mat_text("regular", res.regular_part)])
    return CliResult(0, out)


def _cmd_sparse_form(config: CliConfig) -> CliResult:
    a = _load_exact(config, _resolve_field(config))
    sf = canonical_sparse_form(a)
    if config.json_io:
        obj = {
            "m": list(sf.m),
            "regular": sf.regular_part.to_json_dict(),
            "nilpotent": sf.nilpotent.to_json_dict(),
        }
        if config.emit_transform:
            obj["transform"] = sf.global_transform.to_json_dict()
        out = json.dumps(obj, indent=2)
    else:
        lines = [_m_line(sf.m), _mat_text("regular", sf.regular_part),
                 _mat_text("nilpotent", sf.nilpotent)]
        if config.emit_transform:
            lines.append(_mat_text("transform", sf.global_transform))
        out = "\n".join(lines)
    return CliResult(0, out)


def _cmd_decompose(config: CliConfig) -> CliResult:
    a = _load_exact(config, _resolve_field(config))
    bs, x = full_decomposition(a)
    mults = dict(bs.jordan_multiplicities)
    line = _summary(bs.regular_part.rows, mults)
    if config.json_io:
        obj = {
            "summary": line,
            "regular": bs.regular_part.to_json_dict(),
            "multiplicities": {str(k): mults[k] for k in sorted(mults)},
        }
        if config.emit_transform:
            obj["transform"] = x.to_json_dict()
        out = json.dumps(obj, indent=2)
    else:
        lines = [line, _mat_text("regular", bs.regular_part)]
        if config.emit_transform:
            lines.append(_mat_text("transform", x))
        out = "\n".join(lines)
    return CliResult(0, out)


def _cmd_pencil(config: CliConfig) -> CliResult:
    a = _load_exact(config, _resolve_field(config))
    pd = pencil_regularize(a)
    mults = {kb.size: kb.multiplicity for kb in pd.kronecker_blocks}
    line = _summary(pd.regular.rows, mults)
    jc, jl = pd.jordan_parts()
    rc, rl = pd.replaced_parts()
    if config.json_io:
        obj = {
            "summary": line,
            "regular": pd.regular.to_json_dict(),
            "blocks": [
                {"size": kb.size, "multiplicity": kb.multiplicity,
                 "kind": kb.kind, "ell": kb.ell}
                for kb in pd.kronecker_blocks],
            "jordan": {"constant": jc.to_json_dict(),
                       "lambda": jl.to_json_dict()},
            "replaced": {"constant": rc.to_json_dict(),
                         "lambda": rl.to_json_dict()},
        }
        if config.emit_transform:
            obj["transform"] = pd.transform.to_json_dict()
            obj["replaced_transform"] = pd.replaced_transform.to_json_dict()
        out = json.dumps(obj, indent=2)
    else:
        lines = [line,
                 _mat_text("jordan constant", jc),
                 _mat_text("jordan lambda", jl),
                 _mat_text("replaced constant", rc),
                 _mat_text("replaced lambda", rl)]
        if config.emit_transform:
            lines.append(_mat_text("transform", pd.transform))
            lines.append(_mat_text("replaced transform",
                                   pd.replaced_transform))
        out = "\n".join(lines)
    return CliResult(0, out)


def _cmd_float_regularize(config: CliConfig) -> CliResult:
    mode = _resolve_float_mode(config)
    a = _load_float(config, complex_entries=config.field == "complex")
    rf = float_regularize(a, mode)
    pres = pattern_residual(rf)
    ures = unitarity_residual(rf.transform)
    err = "\n".join(f"warning: {w}" for w in rf.warnings)
    if config.json_io:
        out = json.dumps({
            "m": list(rf.m),
            "regular": _float_mat_json(rf.regular_block),
            "pattern_residual": pres,
            "unitarity_residual": ures,
            "warnings": list(rf.warnings),
        }, indent=2)
    else:
        out = "\n".join([
            _m_line(rf.m), "regular:",
            render_float_matrix(rf.regular_block).rstrip("\n"),
            f"pattern_residual={pres:.6e}",
            f"unitarity_residual={ures:.6e}"])
    return CliResult(0, out, err)


def _cmd_verify(config: CliConfig) -> CliResult:
    seed = config.seed
    if seed is None:
        env = os.environ.get("CONGRU_SEED", "0")
        try:
            seed = _read_integer(env)
        except ValueError:
            raise CliInputError("CONGRU_SEED must be an integer, got "
                                f"{_quote_token(env)}") from None
    if config.trials < 1:
        raise CliInputError("--trials must be positive")
    if config.input_path is not None:
        a = _load_exact(config, _resolve_field(config))
        suite = "invariance"
        report = invariance_suite(a, config.trials, seed=seed)
    else:
        if (config.field, config.involution, config.prime) \
                != ("rational", "identity", None):
            raise CliInputError("--field, --involution and --prime apply "
                                "only with an input matrix")
        suite = "roundtrip"
        report = roundtrip_suite(config.trials, seed=seed)
    status = 0 if report.ok else 2
    if config.json_io:
        out = json.dumps({
            "suite": suite, "seed": seed, "trials": report.total,
            "passed": report.passed, "failures": list(report.failures),
        }, indent=2)
    else:
        lines = [f"suite={suite} seed={seed} trials={report.total}",
                 f"passed {report.passed}/{report.total}"]
        lines.extend(f"fail: {f}" for f in report.failures)
        out = "\n".join(lines)
    return CliResult(status, out)


_DISPATCH = {
    "invariants": _cmd_invariants,
    "regularize": _cmd_regularize,
    "sparse-form": _cmd_sparse_form,
    "decompose": _cmd_decompose,
    "pencil": _cmd_pencil,
    "float-regularize": _cmd_float_regularize,
    "verify": _cmd_verify,
}


def run(config: CliConfig) -> CliResult:
    try:
        return _DISPATCH[config.command](config)
    except MatrixParseError as exc:
        return CliResult(
            1, "", f"error: line {exc.line}, column {exc.column}: {exc}")
    except CliInputError as exc:
        return CliResult(1, "", f"error: {exc}")
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        return CliResult(2, "", f"internal error: {exc}")


# -- argument parsing ----------------------------------------------------------
# Number flags take the grammar of the matrix entries: int() and float()
# alone also read "_" separators and non-ASCII digits.


def _read_integer(text: str) -> int:
    """ValueError off the integer grammar, and past int()'s digit
    limit."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _integer(text: str) -> int:
    try:
        return _read_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer {_quote_token(text)}") from None


def _real(text: str) -> float:
    try:
        return _real_entry(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number {_quote_token(text)}") from None


def _add_exact_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", choices=_EXACT_FIELDS, default="rational")
    p.add_argument("--involution", choices=_INVOLUTIONS,
                   default="identity")
    p.add_argument("--prime", type=_integer, default=None,
                   help="modulus for --field prime-field")
    p.add_argument("--json", action="store_true", dest="json_io",
                   help="read and write JSON instead of the text format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congru",
        description="congruence regularizing decomposition of square "
                    "matrices over a field with involution")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("invariants", "regularize", "sparse-form", "decompose",
                 "pencil"):
        p = sub.add_parser(name)
        _add_exact_flags(p)
        if name in ("sparse-form", "decompose", "pencil"):
            p.add_argument("--emit-transform", action="store_true")
        p.add_argument("input_path", metavar="input",
                       help="matrix file, or - for stdin")

    p = sub.add_parser("float-regularize")
    p.add_argument("--field", choices=_FLOAT_FIELDS, default="complex")
    p.add_argument("--involution", choices=_INVOLUTIONS,
                   default="identity")
    p.add_argument("--tol", type=_real, default=None,
                   help="fixed rank tolerance (default: relative rule)")
    p.add_argument("--json", action="store_true", dest="json_io")
    p.add_argument("input_path", metavar="input",
                   help="matrix file, or - for stdin")

    p = sub.add_parser("verify")
    _add_exact_flags(p)
    p.add_argument("--seed", type=_integer, default=None,
                   help="suite seed (default CONGRU_SEED or 0)")
    p.add_argument("--trials", type=_integer, default=25)
    p.add_argument("input_path", metavar="input", nargs="?", default=None,
                   help="optional matrix: run the invariance suite on it "
                        "instead of the round-trip suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    result = run(CliConfig(**vars(args)))
    try:
        if result.out:
            print(result.out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`congru ... | head`); send the rest
        # to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if result.err:
        print(result.err, file=sys.stderr)
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
