"""Selfadjoint pencil regularization.

A pencil A + lam * A.star is determined by A alone, so the matrix
decomposition does all the work: the transform X that brings A to
(regular block) + (nilpotent Jordan sum) simultaneously brings the
pencil to (B + lam B.star) + sum of J_k + lam J_k^T blocks.  Each
singular pencil summand J_k + lam J_k^T is then permutation-congruent
to a classical Kronecker pair, so the replaced presentation is the
Jordan one with its rows and columns read in one order: each J_k's
indices in the order of its block's witness, after the regular block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import Matrix, jordan_block, permutation_matrix
from .regularize import BlockSum, assemble
from .scalar import FieldSpec
from .sparse_form import full_decomposition


@dataclass(frozen=True)
class SelfadjointPencil:
    a: Matrix

    def __post_init__(self):
        if not self.a.is_square():
            raise ValueError("pencil matrix must be square")

    @property
    def field(self) -> FieldSpec:
        return self.a.field

    def evaluate(self, lam) -> Matrix:
        """The pencil at a concrete parameter value: a + lam * a.star."""
        c = self.a.field.coerce(lam)
        return self.a + self.a.star.scale(c)


def lemma6_permutation(k: int) -> tuple[int, ...]:
    """Index images (0-based) of the permutation that carries a Jordan
    block J_k, by congruence with its permutation matrix, onto the
    anti-diagonal Kronecker layout.

    With f the 1-based map below, the unit J_k entries at (i, i+1)
    land at (f(i), f(i+1)); interleaving odd and even positions puts
    every unit into one of the two off-diagonal corner blocks.
    """
    if k < 2:
        raise ValueError(
            "permutation is defined for blocks of size 2 and up; "
            "a 1x1 block has no unit entries to route")
    f = [0] * (k + 1)
    if k % 2:
        ell = (k + 1) // 2
        f[1] = ell
        for j in range(1, ell):
            f[2 * j] = 2 * ell - j
            f[2 * j + 1] = ell - j
    else:
        ell = k // 2
        for j in range(1, ell + 1):
            f[2 * j - 1] = j
            f[2 * j] = ell + j
    return tuple(v - 1 for v in f[1:])


@dataclass(frozen=True)
class Replacement:
    """Canonical pencil summand for one Jordan size, with the
    permutation witness: witness * J_k * witness.star equals
    constant_part, and the pencil block is
    constant_part + lam * constant_part.star.

    constant_part is anti-diagonal.  Odd k = 2l-1: its corner blocks
    are the (l-1) x l unit-shift pair, [[0, G^T], [F, 0]] with
    F = [I 0] and G = [0 I].  Even k = 2l: [[0, I_l], [J_l, 0]]."""

    kind: str
    ell: int
    constant_part: Matrix
    witness: Matrix


def _witness_order(k: int) -> tuple[int, ...]:
    """The indices of J_k in its witness's row order: f^-1 for the
    Lemma 6 permutation f, so that row r of the witness has its unit
    in column f^-1(r).  A 1x1 block keeps its place."""
    if k < 1:
        raise ValueError("block size must be positive")
    if k == 1:
        return (0,)
    f = lemma6_permutation(k)
    return tuple(sorted(range(k), key=f.__getitem__))


def replace_block(field: FieldSpec, k: int) -> Replacement:
    order = _witness_order(k)
    return Replacement("fg" if k % 2 else "ji", (k + 1) // 2,
                       jordan_block(field, k).take(order, order),
                       permutation_matrix(field, order))


@dataclass(frozen=True)
class KroneckerBlock:
    size: int
    multiplicity: int
    replacement: Replacement


@dataclass(frozen=True)
class PencilDecomposition:
    pencil: SelfadjointPencil
    transform: Matrix
    regular: Matrix
    kronecker_blocks: tuple[KroneckerBlock, ...]

    def _replaced_order(self) -> list[int]:
        """The Jordan presentation's indices in the replaced order: the
        regular block's in place, then each J_k summand's in the order
        of its witness."""
        order = list(range(self.regular.rows))
        for kb in self.kronecker_blocks:
            block = _witness_order(kb.size)
            for _ in range(kb.multiplicity):
                base = len(order)
                order.extend(base + c for c in block)
        return order

    @property
    def replaced_transform(self) -> Matrix:
        """Transform carrying the pencil straight to the replaced
        form: (I (+) the per-block witnesses) * transform, read as the
        rows of transform in the replaced order."""
        return self.transform.take(self._replaced_order())

    def jordan_parts(self) -> tuple[Matrix, Matrix]:
        """Coefficient pair (C, C.star) of the Jordan-pair presentation:
        transform * pencil(lam) * transform.star == C + lam * C.star,
        with C the regular part followed by J_k summands ascending."""
        c = assemble(BlockSum(self.regular, {
            kb.size: kb.multiplicity for kb in self.kronecker_blocks}))
        return c, c.star

    def replaced_parts(self) -> tuple[Matrix, Matrix]:
        """Coefficient pair of the replaced presentation, each Jordan
        summand swapped for its Kronecker pair: the Jordan parts in the
        replaced order, which replaced_transform carries the pencil
        onto as C + lam * C.star."""
        order = self._replaced_order()
        c = self.jordan_parts()[0].take(order, order)
        return c, c.star

    def jordan_form(self, lam) -> Matrix:
        """transform * pencil(lam) * transform.star at a concrete
        parameter value."""
        return SelfadjointPencil(self.jordan_parts()[0]).evaluate(lam)

    def replaced_form(self, lam) -> Matrix:
        """Same value under replaced_transform."""
        return SelfadjointPencil(self.replaced_parts()[0]).evaluate(lam)


def pencil_regularize(p: SelfadjointPencil) -> PencilDecomposition:
    """Decompose the pencil through the underlying matrix: the
    returned transform X satisfies, for every parameter value lam,
    X * p.evaluate(lam) * X.star == jordan_form(lam)."""
    bs, x = full_decomposition(p.a)
    field = p.field
    blocks = tuple(
        KroneckerBlock(size=k, multiplicity=bs.jordan_multiplicities[k],
                       replacement=replace_block(field, k))
        for k in sorted(bs.jordan_multiplicities))
    return PencilDecomposition(
        pencil=p, transform=x, regular=bs.regular_part,
        kronecker_blocks=blocks)
