"""Regularizing decomposition under *congruence.

A square matrix A over a field with involution is *congruent to a
direct sum of a nonsingular matrix and singular Jordan blocks.  This
module runs the two-step reduction stage until the working block
becomes nonsingular and reads the Jordan multiplicities off the
resulting parameter sequence m_1 >= m_2 >= ... >= m_2tau.

Transform convention: every transform X reported anywhere in this
package acts on the left, X * A * X.star == form.  A statement with
the transform on the other side, S.star * A * S, is recovered with
S = X.star.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .matrix import Matrix, direct_sum, jordan_block, row_echelon_transform


@dataclass(frozen=True)
class StageRecord:
    """One reduction stage.

    transform T satisfies T * A * T.star ==
        [[a_next, b, 0], [c, d, e], [0, 0, 0]]
    with block rows/cols of sizes (n - m_odd - m_even, m_even, m_odd);
    e is m_even x m_odd with independent rows.
    """

    m_odd: int
    m_even: int
    transform: Matrix
    a_next: Matrix
    b: Matrix
    c: Matrix
    d: Matrix
    e: Matrix

    def stage_form(self) -> Matrix:
        """The full block matrix T * A * T.star.  The pipeline reads
        the blocks directly; tests compare against this."""
        field = self.transform.field
        n = self.transform.rows
        rho = self.a_next.rows
        z_top = Matrix.zeros(field, rho, self.m_odd)
        z_bot = Matrix.zeros(field, self.m_odd, n)
        top = Matrix.from_blocks(field, [[self.a_next, self.b, z_top],
                                         [self.c, self.d, self.e]])
        return Matrix.from_blocks(field, [[top], [z_bot]])


@dataclass(frozen=True)
class RegularizationResult:
    tau: int
    m: tuple[int, ...]
    regular_part: Matrix
    stages: tuple[StageRecord, ...]


@dataclass(frozen=True)
class BlockSum:
    """A regular part plus a multiset of singular Jordan block sizes."""

    regular_part: Matrix
    jordan_multiplicities: Mapping[int, int]


def stage(a: Matrix) -> StageRecord:
    """One two-step *congruence stage on a square matrix.

    Step 1 compresses the row space: with (P, L) the pivot rows of A
    and its eliminated left null basis, S = [unit rows at P; L] gives
    (S*A)*S.star = [[M, N], [0, 0]] with M = A[P, P], N = A[P, :]*L*
    and m_odd = nullity(A).  Step 2 pushes the rank of N to the bottom:
    with (P2, L2) those of N, R = [L2; unit rows at P2] gives
    R*N = [0; e] with e = N[P2, :] and m_even = rank(N).
    T = [R*S_top; L] produces the stage block form, which grows only
    through the null bases.  A nonsingular input (0x0 included) takes
    the same path: P is every row, so m_odd = m_even = 0, T = I,
    a_next = A and b, c, d, e are empty.
    """
    if not a.is_square():
        raise ValueError("stage requires a square matrix")
    n = a.rows
    field = a.field
    p, l = row_echelon_transform(a)
    r = len(p)
    n_block = a.take(p) * l.star
    p2, l2 = row_echelon_transform(n_block)
    m_even = len(p2)
    rr = Matrix.from_blocks(field, [
        [l2], [Matrix.zero_one(field, m_even, r, enumerate(p2))]])
    # R*S_top is R with its column j moved to column p_j
    col = dict(zip(p, range(r)))
    t = Matrix.from_blocks(field, [
        [rr.take(range(r), [col.get(c) for c in range(n)])], [l]])
    rm = (rr * a.take(p, p)) * rr.star
    rho = r - m_even
    return StageRecord(
        m_odd=n - r,
        m_even=m_even,
        transform=t,
        a_next=rm.block(0, rho, 0, rho),
        b=rm.block(0, rho, rho, r),
        c=rm.block(rho, r, 0, rho),
        d=rm.block(rho, r, rho, r),
        e=n_block.take(p2),
    )


def run_stages(rec, step):
    """The stage loop of both reductions, exact and float, which differ
    only in step.  Starts from rec, the input's stage record, and
    applies step to each record's a_next until a record reports a
    nonsingular block (m_odd == 0); returns the singular records, that
    final record and the parameter sequence m.  Raises RuntimeError as
    soon as m increases."""
    stages = []
    m: tuple[int, ...] = ()
    while rec.m_odd:
        stages.append(rec)
        m += (rec.m_odd, rec.m_even)
        if list(m) != sorted(m, reverse=True):
            raise RuntimeError(
                f"stage parameters must be non-increasing, got {m}")
        rec = step(rec.a_next)
    return stages, rec, m


def regularize(a: Matrix) -> RegularizationResult:
    """Iterate `stage` on the shrinking working block until it reports
    a nonsingular block, and record every singular stage.  The final
    stage has T = I, so its a_next is its input, the regular part."""
    if not a.is_square():
        raise ValueError("regularize requires a square matrix")
    stages, last, m = run_stages(stage(a), stage)
    return RegularizationResult(tau=len(stages), m=m,
                                regular_part=last.a_next,
                                stages=tuple(stages))


def multiplicities(result: RegularizationResult) -> BlockSum:
    """Jordan multiplicities from consecutive differences of the
    parameter sequence: J_k appears m_k - m_{k+1} times.  Reads only
    `m` and `regular_part`, so a SparseForm serves as well."""
    m = result.m
    mult: dict[int, int] = {}
    for k in range(1, len(m) + 1):
        nxt = m[k] if k < len(m) else 0
        count = m[k - 1] - nxt
        if count:
            mult[k] = count
    return BlockSum(regular_part=result.regular_part,
                    jordan_multiplicities=mult)


def assemble(block_sum: BlockSum) -> Matrix:
    """regular_part (+) J_1 blocks (+) J_2 blocks (+) ... in increasing
    size order; the deterministic layout every transform targets."""
    field = block_sum.regular_part.field
    blocks = [block_sum.regular_part]
    for k in sorted(block_sum.jordan_multiplicities):
        count = block_sum.jordan_multiplicities[k]
        if count < 0:
            raise ValueError("negative multiplicity")
        blocks.extend(jordan_block(field, k) for _ in range(count))
    return direct_sum(field, blocks)


def block_slices(rho: int, m: tuple[int, ...]) -> list[tuple[int, slice]]:
    """(label, slice) pairs for the diagonal block layout that m
    fixes.  Top to bottom the blocks are the regular part (label
    2*tau + 1) followed by m_2tau, ..., m_1 (label = index)."""
    out = []
    start = 0
    for lbl, size in zip(range(len(m) + 1, 0, -1), [rho, *reversed(m)]):
        out.append((lbl, slice(start, start + size)))
        start += size
    return out
