#!/usr/bin/env python3
"""Walk the bundled 2x2 example through both involutions.

The same matrix lands in different congruence classes depending on
whether the field involution conjugates i, so the two runs disagree
about the regular part.  Prints the stage trace for each.
"""

from congru import (
    FieldSpec,
    Matrix,
    assemble,
    check_transform,
    full_decomposition,
    invariants,
    regularize,
)

TEXT = "2 2\n1 -i\ni 1\n"


def describe(label, field):
    a = Matrix.from_text(field, TEXT)
    inv = invariants(a)
    print(f"--- {label} ---")
    print(f"nu={inv.nu} zeta={inv.zeta} kappa={inv.kappa} rho={inv.rho}")
    result = regularize(a)
    for depth, rec in enumerate(result.stages):
        print(f"stage {depth}: m_odd={rec.m_odd} m_even={rec.m_even}")
    blocks, x = full_decomposition(a)
    mult = ", ".join(f"J{k} x{v}"
                     for k, v in sorted(blocks.jordan_multiplicities.items()))
    print(f"regular {blocks.regular_part.rows}x{blocks.regular_part.cols}"
          + (f"; {mult}" if mult else ""))
    print("transform:")
    print(x.to_text(), end="")
    report = check_transform(a, x, assemble(blocks))
    print(f"transform verified: {report.ok}")
    print()


if __name__ == "__main__":
    describe("conjugation", FieldSpec.gaussian(conjugation=True))
    describe("identity", FieldSpec.gaussian(conjugation=False))
