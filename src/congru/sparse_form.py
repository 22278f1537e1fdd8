"""Reduction to the canonical sparse form and the Jordan direct sum.

The sparse form of a square matrix A is regular (+) N, where N carries
the whole singular structure in unit blocks [I 0] on its first block
superdiagonal.  The reduction accumulates one explicit nonsingular X
with X * A * X.star == regular (+) N, working level by level from the
innermost block outward so that every elimination is completed
against rows that are genuinely zero.

A permutation similarity then turns N into the direct sum of singular
Jordan blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import (Matrix, direct_sum, inverse, nullspace,
                     permutation_matrix, solve)
from .regularize import BlockSum, StageRecord, multiplicities, regularize
# bench/test_bench.py checks that this module still binds `stage`
from .regularize import stage  # noqa: F401


@dataclass(frozen=True)
class SparseForm:
    regular_part: Matrix
    m: tuple[int, ...]
    nilpotent: Matrix
    global_transform: Matrix


def _hstack(field, blocks) -> Matrix:
    return Matrix.from_blocks(field, [list(blocks)])


def _validate_m(m) -> tuple[int, ...]:
    m = tuple(m)
    if len(m) % 2 != 0:
        raise ValueError("invalid m-sequence: length must be even")
    if any(not isinstance(v, int) or v < 0 for v in m):
        raise ValueError("invalid m-sequence: entries must be >= 0")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise ValueError("invalid m-sequence: must be non-increasing")
    if m and m[-2] == 0:
        raise ValueError("invalid m-sequence: odd entries must be positive")
    return m


def _offsets(m: tuple[int, ...]) -> dict[int, int]:
    # block j of N starts at row/column offsets[j]; blocks are laid
    # out top to bottom as m_2tau, ..., m_1
    off = {}
    acc = 0
    for j in range(len(m), 0, -1):
        off[j] = acc
        acc += m[j - 1]
    return off


def sparse_nilpotent(field, m) -> Matrix:
    """The canonical nilpotent block matrix for a parameter sequence:
    unit blocks [I_{m_j} 0] of size m_j x m_{j-1} on the first block
    superdiagonal, zeros elsewhere."""
    m = _validate_m(m)
    off = _offsets(m)
    size = sum(m)
    z, o = field.zero(), field.one()
    rows = [[z] * size for _ in range(size)]
    for j in range(2, len(m) + 1):
        for t in range(m[j - 1]):
            rows[off[j] + t][off[j - 1] + t] = o
    return Matrix(field, size, size, tuple(tuple(r) for r in rows))


def _unit(field, rows: int, cols: int) -> Matrix:
    """The rows x cols block [I 0]."""
    return _hstack(field, [Matrix.identity(field, rows),
                           Matrix.zeros(field, rows, cols - rows)])


def reduce_cde(rec: StageRecord) -> Matrix:
    """The transform that clears the c and d blocks of a stage and
    normalizes e to [I 0].

    The column *congruence I (+) V.star with e*V = [I 0] normalizes e
    and leaves c and d alone; they are then cleared by adding
    multiples of the resulting unit columns, whose only nonzero rows
    face the zero bottom block, so nothing else is disturbed.  Both
    steps compose to the block transform
    [[I, 0, -c.star*W], [0, I, -d.star*W], [0, 0, V.star]] with W the
    top m_even rows of V.star.  It takes rec.stage_form() to
    [[a_next, b, 0], [0, 0, [I 0]], [0, 0, 0]]; no n x n product is
    formed.
    """
    m_odd, m_even = rec.m_odd, rec.m_even
    if m_even == 0:
        raise ValueError("nothing to reduce: the rank block is empty")
    field = rec.e.field
    rho = rec.a_next.rows
    v_star = _hstack(field, [solve(rec.e, Matrix.identity(field, m_even)),
                             nullspace(rec.e)]).star
    w = v_star.block(0, m_even, 0, m_odd)
    ident, zeros = Matrix.identity, Matrix.zeros
    return Matrix.from_blocks(field, [
        [ident(field, rho), zeros(field, rho, m_even), -(rec.c.star * w)],
        [zeros(field, m_even, rho), ident(field, m_even), -(rec.d.star * w)],
        [zeros(field, m_odd, rho), zeros(field, m_odd, m_even), v_star],
    ])


def _merge_level(g: Matrix, xg: Matrix, bottom_zero: int,
                 rec: StageRecord) -> tuple[Matrix, Matrix]:
    """Embed one reduced stage around the already-canonical inner
    block g and restore the sparse shape.

    g is h x h with its bottom `bottom_zero` rows and columns zero and
    all other rows of disjoint support (so independent); rec.b couples
    the inner block to the new m_even columns.  Returns the new
    canonical block and the transform factor applied on top of
    (xg (+) I).
    """
    field = g.field
    m_odd, m_even = rec.m_odd, rec.m_even
    h = g.rows
    ident = Matrix.identity
    zeros = Matrix.zeros
    bhat = xg * rec.b
    e0 = _unit(field, m_even, m_odd)
    current = Matrix.from_blocks(field, [
        [g, bhat, zeros(field, h, m_odd)],
        [zeros(field, m_even, h), zeros(field, m_even, m_even), e0],
        [zeros(field, m_odd, h), zeros(field, m_odd, m_even),
         zeros(field, m_odd, m_odd)],
    ])
    n_k = h + m_even + m_odd
    factor = ident(field, n_k)
    if m_even == 0:
        return current, factor

    # column *congruence against the independent upper rows of g kills
    # the coupling block everywhere except the bottom_zero rows
    nz = h - bottom_zero
    k_sol = solve(g.block(0, nz, 0, h), -bhat.block(0, nz, 0, m_even))
    x_c = Matrix.from_blocks(field, [
        [ident(field, h), zeros(field, h, m_even), zeros(field, h, m_odd)],
        [k_sol.star, ident(field, m_even), zeros(field, m_even, m_odd)],
        [zeros(field, m_odd, h), zeros(field, m_odd, m_even),
         ident(field, m_odd)],
    ])
    current = (x_c * current) * x_c.star
    factor = x_c

    # the paired row operation left residue in the m_even rows; clear
    # it with the unit columns, which complete against the zero bottom
    # block and leave everything else alone
    gam1 = current.block(h, h + m_even, 0, h)
    gam2 = current.block(h, h + m_even, h, h + m_even)
    pad = m_odd - m_even
    x_r = Matrix.from_blocks(field, [
        [ident(field, h), zeros(field, h, m_even),
         _hstack(field, [-gam1.star, zeros(field, h, pad)])],
        [zeros(field, m_even, h), ident(field, m_even),
         _hstack(field, [-gam2.star, zeros(field, m_even, pad)])],
        [zeros(field, m_odd, h), zeros(field, m_odd, m_even),
         ident(field, m_odd)],
    ])
    current = (x_r * current) * x_r.star
    factor = x_r * factor

    if bottom_zero > 0:
        # the surviving coupling rows sit against the zero rows of g
        # and are independent; normalize them to the unit block, then
        # undo the damage that the paired row operation does to e0
        b3 = current.block(nz, h, h, h + m_even)
        v = _hstack(field, [solve(b3, ident(field, bottom_zero)),
                            nullspace(b3)])
        w = direct_sum(field, [inverse(v), ident(field, pad)])
        x_v = direct_sum(field, [ident(field, h), v.star, w])
        current = (x_v * current) * x_v.star
        factor = x_v * factor
    return current, factor


def canonical_sparse_form(a: Matrix) -> SparseForm:
    """Reduce a square matrix to regular (+) N by explicit
    *congruences.  The stages come from `regularize`, recorded going
    down; the canonical shape is restored level by level coming back
    up, so the accumulated transform is a single matrix product."""
    if not a.is_square():
        raise ValueError("canonical_sparse_form requires a square matrix")
    field = a.field
    res = regularize(a)
    g = res.regular_part
    xg = Matrix.identity(field, g.rows)
    bottom_zero = 0
    for rec in reversed(res.stages):
        w = rec.transform
        if rec.m_even > 0:
            w = reduce_cde(rec) * w
        g, factor = _merge_level(g, xg, bottom_zero, rec)
        pad = Matrix.identity(field, rec.m_even + rec.m_odd)
        xg = factor * direct_sum(field, [xg, pad]) * w
        bottom_zero = rec.m_odd

    rho = res.regular_part.rows
    return SparseForm(
        regular_part=res.regular_part,
        m=res.m,
        nilpotent=g.block(rho, g.rows, rho, g.rows),
        global_transform=xg,
    )


def jordan_permutation(field, m) -> Matrix:
    """P with P * N * P.transpose() == the Jordan direct sum for the
    same parameter sequence (blocks in increasing size order).

    N decomposes into disjoint chains, one per Jordan block: a chain
    of length k enters at block row k with a column index t that no
    longer block reaches, t in [m_{k+1}, m_k).  Chains are matched to
    the Jordan blocks shorter first, ties broken by t.
    """
    m = _validate_m(m)
    off = _offsets(m)
    two_tau = len(m)
    images: list[int] = []
    for k in range(1, two_tau + 1):
        nxt = m[k] if k < two_tau else 0
        for t in range(nxt, m[k - 1]):
            images.extend(off[k - d] + t for d in range(k))
    return permutation_matrix(field, images)


def full_decomposition(a: Matrix) -> tuple[BlockSum, Matrix]:
    """The complete answer: a BlockSum naming the regular part and
    the Jordan multiset, plus X with X * A * X.star equal to
    regular (+) J-blocks in increasing size order."""
    sf = canonical_sparse_form(a)
    field = a.field
    p = jordan_permutation(field, sf.m)
    x = direct_sum(field, [Matrix.identity(field, sf.regular_part.rows), p]
                   ) * sf.global_transform
    return multiplicities(sf), x
