"""A group whose minimal real representation beats realification.

The split extension of sum-zero Z_3^4 by S_4 has 648 elements.  Its
minimal faithful complex representation has dimension 4, is irreducible,
and is not real, so restricting scalars costs 8 real dimensions.  Yet a
direct construction on three oriented planes, through the isomorphism of
S_4 with sign flips extended by S_3, is faithful in dimension 6.

Run:  python demos/05_exceptional_example.py
"""

from cubereps.replib import (
    ExceptionalExample,
    character_norm,
    decorated_perm,
    faithful_enumerated,
    frobenius_schur,
)

ex = ExceptionalExample()
print("group order:", len(ex.elements))

print("\nThe degree-4 monomial representation:")
print("  faithful:", faithful_enumerated(ex.rep4.of, ex.elements))
print("  character norm <chi,chi>:", character_norm(ex.rep4.of, ex.elements), "(1 = irreducible)")
fs = frobenius_schur(ex.rep4.of, ex.elements, ex.mul)
print("  Frobenius-Schur indicator:", fs, "(1 would mean real; it is not)")
print("  so realification needs", 2 * ex.rep4.degree, "real dimensions")

print("\nThe 6-dimensional real construction:")
print("  faithful:", faithful_enumerated(ex.rep6.of, ex.elements))
print("  real dimension:", ex.rep6.real_dimension)

print("\nHow S_4 moves the three planes (decorated permutations):")
for x in ex.elements:
    if any(x.exps) or x.perm.is_identity():
        continue
    d = decorated_perm(ex.rep6.of(x))
    if x.perm.cycle_string() in ("(12)", "(1234)", "(12)(34)"):
        print(
            f"  {x.perm.cycle_string():<9} -> planes {d.sigma_q.cycle_string():<6}"
            f" orientation flips {d.flags}"
        )

print("\nA plane-reversing involution and a plane rotation, extracted:")
img = ex.rep6.generators["transposition"]
print("  transposition image:", img.block_text())
