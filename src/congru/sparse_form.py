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

from .matrix import Matrix, direct_sum, solve, unit_completion
from .regularize import (BlockSum, StageRecord, block_slices,
                         multiplicities, regularize)
# bench/test_bench.py checks that this module still binds `stage`
from .regularize import stage  # noqa: F401


@dataclass(frozen=True)
class SparseForm:
    regular_part: Matrix
    m: tuple[int, ...]
    nilpotent: Matrix
    global_transform: Matrix


def _validate_m(m) -> tuple[int, ...]:
    m = tuple(m)
    if len(m) % 2 != 0:
        raise ValueError("invalid m-sequence: length must be even")
    if any(type(v) is not int or v < 0 for v in m):  # a bool is not a size
        raise ValueError("invalid m-sequence: entries must be >= 0")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise ValueError("invalid m-sequence: must be non-increasing")
    if m and m[-2] == 0:
        raise ValueError("invalid m-sequence: odd entries must be positive")
    return m


def sparse_nilpotent(field, m) -> Matrix:
    """The canonical nilpotent block matrix for a parameter sequence:
    unit blocks [I_{m_j} 0] of size m_j x m_{j-1} on the first block
    superdiagonal, zeros elsewhere."""
    m = _validate_m(m)
    # block j of N starts at row and column off[j]
    off = {j: s.start for j, s in block_slices(0, m)}
    size = sum(m)
    return Matrix.zero_one(field, size, size, [
        (off[j] + t, off[j - 1] + t)
        for j in range(2, len(m) + 1) for t in range(m[j - 1])])


def reduce_cde(rec: StageRecord) -> Matrix:
    """The transform that clears the c and d blocks of a stage and
    normalizes e to [I 0].

    The column *congruence I (+) V.star, with V from
    unit_completion(e) so that e*V = [I 0], normalizes e and leaves c
    and d alone; they are then cleared by adding multiples of the
    resulting unit columns, whose only nonzero rows face the zero
    bottom block, so nothing else is disturbed.  Both steps compose to
    the block transform
    [[I, 0, -c.star*W], [0, I, -d.star*W], [0, 0, V.star]] with W the
    top m_even rows of V.star.  It takes rec.stage_form() to
    [[a_next, b, 0], [0, 0, [I 0]], [0, 0, 0]]; no n x n product is
    formed; with m_even == 0, e has no rows and it is the identity.
    """
    m_odd, m_even = rec.m_odd, rec.m_even
    field = rec.e.field
    rho = rec.a_next.rows
    v_star = unit_completion(rec.e)[0].star
    w = v_star.block(0, m_even, 0, m_odd)
    ident, zeros = Matrix.identity, Matrix.zeros
    return Matrix.from_blocks(field, [
        [ident(field, rho), zeros(field, rho, m_even), -(rec.c.star * w)],
        [zeros(field, m_even, rho), ident(field, m_even), -(rec.d.star * w)],
        [zeros(field, m_odd, rho), zeros(field, m_odd, m_even), v_star],
    ])


def _merge_level(g: Matrix, xg: Matrix, bottom_zero: int,
                 rec: StageRecord) -> Matrix:
    """F * (xg (+) I), for F the transform that merges one reduced
    stage around the already-canonical inner block
    g = xg * rec.a_next * xg.star: the inner transform xg taken into
    F's grid, so that the result acts on the stage's own form
    [[rec.a_next, rec.b, 0], [0, 0, [I 0]], [0, 0, 0]].

    g is h x h with its bottom `bottom_zero` rows zero and its other
    rows of disjoint support (so independent); its bottom columns are
    not zero, because the unit blocks of the inner N reach into them.
    With bhat = xg * rec.b, F * P * F.star is the next canonical level
    for P = [[g, bhat, 0], [0, 0, [I 0]], [0, 0, 0]], which is never
    formed.  F composes three block *congruences:

    - K with g[:nz] * K = -bhat[:nz], nz = h - bottom_zero, clears the
      coupling block except the rows b3 = bhat[nz:] that face the zero
      rows of g, and leaves G1 = K.star * g and
      G2 = K.star * (g * K + bhat) = K[nz:].star * b3 in the m_even rows;
    - the unit columns of [I 0] clear G1 and G2; they complete against
      the zero bottom block, so nothing else moves;
    - V = [solve(b3, I) | nullspace(b3)] has b3 * V = [I 0], so V.star
      normalizes b3, and W = V^-1 (+) I undoes what V.star does to the
      unit block.  unit_completion(b3) gives V and V^-1 = [b3; I_F],
      I_F the rows of I at b3's free columns, from one elimination
      (b3 has no rows when bottom_zero == 0, so V = W = I).

    So F = [[I, 0, [-G1.star, 0]], [(K*V).star, V.star,
    V.star * [-G2.star, 0]], [0, 0, W]], with
    V.star * G2.star = (b3 * V).star * K[nz:] = [K[nz:]; 0], and
    F * (xg (+) I) has xg and (K*V).star * xg in its first block column.
    """
    field = g.field
    m_odd, m_even = rec.m_odd, rec.m_even
    h = g.rows
    nz = h - bottom_zero
    pad = m_odd - m_even
    ident, zeros = Matrix.identity, Matrix.zeros
    bhat = xg * rec.b
    k_sol = solve(g.block(0, nz, 0, h), -bhat.block(0, nz, 0, m_even))
    v, v_inv = unit_completion(bhat.block(nz, h, 0, m_even))
    w = direct_sum(field, [v_inv, ident(field, pad)])
    return Matrix.from_blocks(field, [
        [xg, zeros(field, h, m_even),
         Matrix.from_blocks(field, [[-(g.star * k_sol),
                                      zeros(field, h, pad)]])],
        # V.star * [-G2.star, 0] = [[-K[nz:], 0], [0, 0]]
        [(k_sol * v).star * xg, v.star,
         direct_sum(field, [-k_sol.block(nz, h, 0, m_even),
                            zeros(field, m_even - bottom_zero, pad)])],
        [zeros(field, m_odd, h), zeros(field, m_odd, m_even), w],
    ])


def canonical_sparse_form(a: Matrix) -> SparseForm:
    """Reduce a square matrix to regular (+) N by explicit
    *congruences.  The stages come from `regularize`, recorded going
    down; the canonical shape is restored level by level coming back
    up, so the accumulated transform is a single matrix product.

    The parameter sequence fixes every level: before stage k is merged
    the inner block is regular (+) sparse_nilpotent(m[2k+2:]), and after
    it regular (+) sparse_nilpotent(m[2k:]).  Only the transform is
    computed."""
    if not a.is_square():
        raise ValueError("canonical_sparse_form requires a square matrix")
    field = a.field
    res = regularize(a)
    m = res.m
    xg = Matrix.identity(field, res.regular_part.rows)
    bottom_zero = 0
    for k in reversed(range(res.tau)):
        rec = res.stages[k]
        w = reduce_cde(rec) * rec.transform
        g = direct_sum(field, [res.regular_part,
                               sparse_nilpotent(field, m[2 * k + 2:])])
        xg = _merge_level(g, xg, bottom_zero, rec) * w
        bottom_zero = rec.m_odd

    return SparseForm(
        regular_part=res.regular_part,
        m=m,
        nilpotent=sparse_nilpotent(field, m),
        global_transform=xg,
    )


def _jordan_images(m) -> list[int]:
    """The row order that carries N = sparse_nilpotent(field, m) to
    the Jordan direct sum for the same parameter sequence, blocks in
    increasing size order: N.take(order, order) is that sum.

    N decomposes into disjoint chains, one per Jordan block: a chain
    of length k enters at block row k with a column index t that no
    longer block reaches, t in [m_{k+1}, m_k).  Chains are matched to
    the Jordan blocks shorter first, ties broken by t.
    """
    m = _validate_m(m)
    off = {j: s.start for j, s in block_slices(0, m)}
    two_tau = len(m)
    images: list[int] = []
    for k in range(1, two_tau + 1):
        nxt = m[k] if k < two_tau else 0
        for t in range(nxt, m[k - 1]):
            images.extend(off[k - d] + t for d in range(k))
    return images


def full_decomposition(a: Matrix) -> tuple[BlockSum, Matrix]:
    """The complete answer: a BlockSum naming the regular part and
    the Jordan multiset, plus X with X * A * X.star equal to
    regular (+) J-blocks in increasing size order: the rows of
    global_transform with the regular rows in place and the rest in
    the order of _jordan_images."""
    sf = canonical_sparse_form(a)
    rho = sf.regular_part.rows
    order = [*range(rho), *(rho + i for i in _jordan_images(sf.m))]
    return multiplicities(sf), sf.global_transform.take(order)
