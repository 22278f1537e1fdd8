"""Output checks for benchmark requests, run outside the timed span.

Exact requests must return the generated Jordan multiset and regular
size, and a transform that check_transform confirms exactly.  Float
requests must keep the pattern and unitarity residuals within 1e-9;
a parameter sequence m other than the generated one is the float
rank policy missing the answer.  That is counted as a failed request
but is not an incorrect output, because the float path documents its
rank decisions as tolerance-bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from congru import (BlockSum, FieldSpec, GaussianRational, Matrix, ModInt,
                    assemble, check_transform)
from workloads import PRIME

RESIDUAL_LIMIT = 1e-9

OK = "ok"
WRONG_M = "wrong-m"   # float rank decision missed the generated m
ERROR = "error"       # crash, non-zero status or a wrong exact answer


@dataclass(frozen=True)
class Verdict:
    kind: str
    reason: str = ""
    x_bits: int = 0      # largest numerator/denominator bits in X
    warnings: int = 0    # float warnings reported


def field_spec(field: str) -> FieldSpec:
    if field == "rational":
        return FieldSpec.rationals()
    if field == "gaussian-rational":
        return FieldSpec.gaussian(conjugation=True)
    return FieldSpec.prime_field(PRIME)


def entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, GaussianRational):
        return max(entry_bits(x.re), entry_bits(x.im))
    if isinstance(x, ModInt):
        return x.val.bit_length()
    return 0


def check(request: dict, field: str, input_text: str, status: int,
          out: str, err: str) -> Verdict:
    """request is the manifest entry that holds the generated answer."""
    if status != 0:
        return Verdict(ERROR, f"exit {status}: {err.strip()}")
    try:
        obj = json.loads(out)
        if field == "complex":
            return _check_float(request, obj)
        return _check_exact(request, field_spec(field), input_text, obj)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(ERROR, f"malformed output: {exc!r}")


def _check_exact(request: dict, spec: FieldSpec, input_text: str,
                 obj: dict) -> Verdict:
    mult = {int(k): v for k, v in obj["multiplicities"].items()}
    want = {}
    for k in request["jordan"]:
        want[k] = want.get(k, 0) + 1
    if mult != want:
        return Verdict(ERROR, f"Jordan multiset {mult} != {want}")
    regular = Matrix.from_json_dict(spec, obj["regular"])
    if regular.rows != request["regular"]:
        return Verdict(ERROR, f"regular size {regular.rows} != "
                              f"{request['regular']}")
    a = Matrix.from_json_dict(spec, json.loads(input_text))
    x = Matrix.from_json_dict(spec, obj["transform"])
    rep = check_transform(a, x, assemble(BlockSum(regular, mult)))
    if not rep.ok:
        return Verdict(ERROR, rep.reason)
    bits = max((entry_bits(x[i, j]) for i in range(x.rows)
                for j in range(x.cols)), default=0)
    return Verdict(OK, x_bits=bits)


def _check_float(request: dict, obj: dict) -> Verdict:
    warnings = len(obj["warnings"])
    for key in ("pattern_residual", "unitarity_residual"):
        if not obj[key] <= RESIDUAL_LIMIT:
            return Verdict(ERROR, f"{key} {obj[key]:.3e} exceeds "
                                  f"{RESIDUAL_LIMIT:g}", warnings=warnings)
    if obj["m"] != request["m"]:
        return Verdict(WRONG_M, f"m {obj['m']} != {request['m']}",
                       warnings=warnings)
    return Verdict(OK, warnings=warnings)
