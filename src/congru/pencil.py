"""Selfadjoint pencil regularization.

A pencil A + lam * A.star is determined by A alone, so the matrix
decomposition does all the work, on the pencil's two coefficients
rather than at any value of lam.  Let C be (regular block) + (nilpotent
Jordan sum) and X the transform with X * A * X.star == C.  Then
X * A.star * X.star == C.star, so X * (A + lam A.star) * X.star is
C + lam C.star for every lam: (B + lam B.star) + sum of J_k + lam J_k^T
blocks.  Each singular pencil summand J_k + lam J_k^T is then
permutation-congruent to a classical Kronecker pair, so the replaced
presentation is the Jordan one with its rows and columns read in one
order: each J_k's indices in the order of its block's witness, after
the regular block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix
from .regularize import assemble
from .sparse_form import full_decomposition


def _witness_order(k: int) -> tuple[int, ...]:
    """The indices of J_k in its witness's row order, the inverse of
    the Lemma 6 permutation: for even k the even indices, then the odd
    ones; for odd k the even indices descending, then the odd ones
    descending.  Either way every unit of J_k at (i, i+1) lands in one
    of the two off-diagonal corner blocks."""
    if k % 2:
        return (*range(k - 1, -1, -2), *range(k - 2, 0, -2))
    return (*range(0, k, 2), *range(1, k, 2))


@dataclass(frozen=True)
class KroneckerBlock:
    """multiplicity copies of J_k, k = size, each presented in the
    replaced form as an anti-diagonal Kronecker pair C + lam * C.star.

    Odd k = 2l-1 (kind "fg"): C's corner blocks are the (l-1) x l
    unit-shift pair, [[0, G^T], [F, 0]] with F = [I 0] and G = [0 I].
    Even k = 2l (kind "ji"): C = [[0, I_l], [J_l, 0]].  In both,
    ell = l.  C = J_k.take(order, order) for order = _witness_order(k)."""

    size: int
    multiplicity: int

    @property
    def kind(self) -> str:
        return "fg" if self.size % 2 else "ji"

    @property
    def ell(self) -> int:
        return (self.size + 1) // 2


@dataclass(frozen=True)
class PencilDecomposition:
    """jordan_constant is C = regular (+) the J_k summands ascending;
    replaced_order lists C's indices in the replaced presentation's
    order: the regular block's in place, then each J_k summand's in
    the order of its witness."""

    transform: Matrix
    regular: Matrix
    kronecker_blocks: tuple[KroneckerBlock, ...]
    jordan_constant: Matrix
    replaced_order: tuple[int, ...]

    @property
    def replaced_transform(self) -> Matrix:
        """Transform carrying the pencil straight to the replaced
        form: (I (+) the per-block witnesses) * transform, read as the
        rows of transform in the replaced order."""
        return self.transform.take(self.replaced_order)

    def jordan_parts(self) -> tuple[Matrix, Matrix]:
        """Coefficient pair (C, C.star) of the Jordan-pair presentation:
        transform * a * transform.star == C for the decomposed a, so
        transform carries the pencil a + lam * a.star onto
        C + lam * C.star."""
        c = self.jordan_constant
        return c, c.star

    def replaced_parts(self) -> tuple[Matrix, Matrix]:
        """Coefficient pair of the replaced presentation, each Jordan
        summand swapped for its Kronecker pair: the Jordan parts in the
        replaced order, which replaced_transform carries the pencil
        onto as C + lam * C.star."""
        order = self.replaced_order
        c = self.jordan_constant.take(order, order)
        return c, c.star


def pencil_regularize(a: Matrix) -> PencilDecomposition:
    """Decompose the pencil a + lam * a.star through a itself: the
    returned transform X satisfies X * a * X.star == C for the Jordan
    constant C, and so X * (a + lam * a.star) * X.star ==
    C + lam * C.star for every lam.  A non-square a raises ValueError,
    from full_decomposition."""
    bs, x = full_decomposition(a)
    blocks = tuple(KroneckerBlock(k, bs.jordan_multiplicities[k])
                   for k in sorted(bs.jordan_multiplicities))
    order = list(range(bs.regular_part.rows))
    for kb in blocks:
        block = _witness_order(kb.size)
        for _ in range(kb.multiplicity):
            base = len(order)
            order.extend(base + c for c in block)
    return PencilDecomposition(
        transform=x, regular=bs.regular_part,
        kronecker_blocks=blocks, jordan_constant=assemble(bs),
        replaced_order=tuple(order))
