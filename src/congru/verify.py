"""Independent cross-checks for the decomposition machinery.

Everything here validates results by a route other than the one that
produced them: transforms by direct congruence evaluation, invariants
by sampling random congruences.  The random generators are fully
seeded so every reported failure is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .matrix import Matrix, invariants
from .regularize import BlockSum, assemble, regularize
from .scalar import FieldKind, FieldSpec
from .sparse_form import full_decomposition

# spreads consecutive suite indices into unrelated generator seeds
_SEED_STRIDE = 1_000_003
# the random draws take integer entries in [-_ENTRY_BOUND, _ENTRY_BOUND]
_ENTRY_BOUND = 5


def _draw_matrix(rng: random.Random, field: FieldSpec, rows: int, cols: int,
                 bound: int) -> Matrix:
    """Integer entries in [-bound, bound], drawn entry by entry, over
    Q(i) the real part and then the imaginary part.  Each entry goes to
    the matrix as the ints that scalar._reader gives for it, so that no
    scalar is built."""
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        def draw():
            return rng.randint(-bound, bound), rng.randint(-bound, bound), 1
    elif field.p:
        def draw():
            return rng.randint(-bound, bound) % field.p
    else:
        def draw():
            return rng.randint(-bound, bound), 1
    return Matrix._from_grid(
        field, rows, cols, [[draw() for _ in range(cols)] for _ in range(rows)])


def _draw_nonsingular(rng: random.Random, field: FieldSpec, n: int,
                      bound: int) -> Matrix:
    """Rejection-sample _draw_matrix until nonsingular.  The 0 x 0
    matrix is nonsingular by convention, so n = 0 returns at once."""
    while True:
        a = _draw_matrix(rng, field, n, n, bound)
        if a.is_nonsingular():
            return a


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    reason: str = ""


def check_transform(a: Matrix, x: Matrix, target: Matrix) -> CheckReport:
    """Confirm x * a * x.star == target by exact entrywise comparison.
    A singular x fails regardless of the product."""
    if x.rows != x.cols or x.rows != a.rows or a.shape != target.shape:
        raise ValueError("dimension mismatch")
    if not x.is_nonsingular():
        return CheckReport(False, "transform singular")
    got = (x * a) * x.star
    if got == target:
        return CheckReport(True)
    for i in range(got.rows):
        for j in range(got.cols):
            if got[i, j] != target[i, j]:
                return CheckReport(
                    False,
                    f"mismatch at ({i}, {j}): "
                    f"{a.field.render_scalar(got[i, j])} != "
                    f"{a.field.render_scalar(target[i, j])}")
    return CheckReport(False, "field mismatch")


@dataclass(frozen=True)
class SuiteReport:
    total: int
    passed: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def invariance_suite(a: Matrix, trials: int, *, seed: int) -> SuiteReport:
    """Sample random congruences s * a * s.star and confirm the
    invariant tuple and the regularization parameters never move."""
    base_inv = invariants(a)
    base_reg = regularize(a)
    base = (base_inv, base_reg.tau, base_reg.m)
    failures = []
    for i in range(trials):
        s = _draw_nonsingular(random.Random(seed * _SEED_STRIDE + i),
                              a.field, a.rows, _ENTRY_BOUND)
        b = (s * a) * s.star
        got_reg = regularize(b)
        got = (invariants(b), got_reg.tau, got_reg.m)
        if got != base:
            failures.append(
                f"trial {i}: congruence moved invariants from {base} "
                f"to {got}")
    return SuiteReport(trials, trials - len(failures), tuple(failures))


def roundtrip_suite(trials: int, *, seed: int) -> SuiteReport:
    """Build matrices with a known decomposition by congruence-scrambling
    regular + Jordan direct sums, then demand the decomposition
    recovers the block multiset, the regular size, and a verified
    transform.  Trials alternate between the rationals with the
    identity and the Gaussian rationals with conjugation."""
    failures = []
    rational = FieldSpec.rationals()
    gaussian = FieldSpec.gaussian()
    for i in range(trials):
        rng = random.Random(seed * _SEED_STRIDE + i)
        field = rational if i % 2 == 0 else gaussian
        b_size = rng.randint(0, 4)
        sizes: list[int] = []
        budget = 10
        for _ in range(rng.randint(0, 4)):
            if not budget:
                break
            k = rng.randint(1, min(4, budget))
            sizes.append(k)
            budget -= k
        want = {k: sizes.count(k) for k in set(sizes)}
        canonical = assemble(BlockSum(
            _draw_nonsingular(rng, field, b_size, _ENTRY_BOUND), want))
        s = _draw_nonsingular(rng, field, canonical.rows, _ENTRY_BOUND)
        a = (s.star * canonical) * s
        bs, x = full_decomposition(a)
        if dict(bs.jordan_multiplicities) != want:
            failures.append(
                f"trial {i}: block multiset {dict(bs.jordan_multiplicities)}"
                f" != {want}")
            continue
        if bs.regular_part.rows != b_size:
            failures.append(
                f"trial {i}: regular size {bs.regular_part.rows} != "
                f"{b_size}")
            continue
        rep = check_transform(a, x, assemble(bs))
        if not rep.ok:
            failures.append(f"trial {i}: {rep.reason}")
    return SuiteReport(trials, trials - len(failures), tuple(failures))
