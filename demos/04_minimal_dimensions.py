"""Minimal faithful representations of the cube groups.

The 2x2 group acts faithfully on C^8 by cube roots of unity on the
diagonal and corner permutations on the coordinates; no smaller faithful
complex representation exists.  Realifying doubles every rotation plane,
and a short case analysis shows 16 real dimensions is optimal.  The 3x3
story is the same with 12 sign coordinates and 8 rotation planes: 20
complex, 28 real.  Realifying finds the sign coordinates itself: those
the generators keep among themselves with entries +-1.

Run:  python demos/04_minimal_dimensions.py
"""

from cubereps import build_rep_g2, build_rep_g3, realify
from cubereps.replib import (
    faithful_structural,
    g2_real_case_analysis,
    g3_real_case_table,
    lower_bound_complex_split,
    mu,
)
from cubereps.cube import default_tables
from cubereps.structure import WORD_K, word_element_g2

rep2 = build_rep_g2()
print("The degree-8 monomial representation of the 2x2 group:")
print("  faithful:", faithful_structural(rep2, default_tables(2).face_tables))
print("  image of the twist word k (diagonal of cube roots):")
print(rep2.of(word_element_g2(WORD_K)).matrix_text())
print("  lower bound from the splitting:", lower_bound_complex_split(("S", 8)))

cases = g2_real_case_analysis()
print("\nReal case analysis for the 2x2 group:")
print("  all planes:", cases["q_case"], " lines forced by S_8:", cases["p_case"])
print("  minimal real dimension:", cases["bound"])
real2 = realify(rep2)
print("  derived sign lines:", real2.sign_count, " rotation planes:", real2.rot_count)
print("  realified construction dimension:", real2.real_dimension)

rep3 = build_rep_g3()
print("\nThe degree-20 monomial representation of the 3x3 group:")
print("  faithful:", faithful_structural(rep3, default_tables(3).face_tables))
print("  lower bound mu(A8 x A12):", mu(("x", [("A", 8), ("A", 12)])))

table = g3_real_case_table()
print("\nKernel case table for real representations of the 3x3 group:")
print(f"  {'K_p':<10}{'K_q':<10}{'p':>4}{'q':>4}{'p+2q':>6}")
for i, (kp, kq, p, q, dim) in enumerate(table["rows"]):
    note = f"  (refined to >= {table['refined'][i]})" if i in table["refined"] else ""
    print(f"  {kp:<10}{kq:<10}{p:>4}{q:>4}{dim:>6}{note}")
print("  minimal real dimension:", table["bound"])
real3 = realify(rep3)
print("  derived sign lines:", real3.sign_count, " rotation planes:", real3.rot_count)
print("  realified construction dimension:", real3.real_dimension)
