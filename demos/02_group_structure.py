"""The structure of the cube groups, computed exactly.

The 2x2 group splits as (sum-zero corner twists) extended by S_8; the 3x3
group splits as (sum-zero flips and twists) extended by the sign-matched
pairs in S_12 x S_8.  Every ingredient below is a concrete move word or an
exact stabilizer-chain computation.

Run:  python demos/02_group_structure.py
"""

import math

from cubereps import phi
from cubereps.structure import (
    WORD_H1,
    WORD_K,
    build_m,
    build_transpositions,
    edge_three_cycle,
    section_g2_in_g3,
    word_element_g2,
    word_element_g3,
)
from cubereps.verify import Context

ctx = Context()

print("Corner images of the six generators generate all of S_8:")
print("  order of <phi(U), ..., phi(R)> =", ctx.chain("corner-group").order(), "= 8!")

ts = build_transpositions()
print("\nWords realizing the three transposition classes of corners:")
for name in ("t1", "t2", "t3"):
    print(f"  phi({name}) = {phi(ts[name]).cycle_string():<6} word: {ts[name]}")

k = word_element_g2(WORD_K)
print("\nThe word k twists corners without moving them:")
print("  word:", WORD_K)
print("  corner permutation:", k.perm.cycle_string(), " twist vector:", k.twist)

h = word_element_g3(WORD_H1)
print("\nThe same word on the 3x3 cycles three edges (and twists corners):")
print("  edge action:", h.pair[0].cycle_string(letters=True))

n = word_element_g3(edge_three_cycle("abf"))
print("\nA commutator of two such words fixes the corners entirely:")
print("  edge action:", n.pair[0].cycle_string(letters=True), " corner action:", n.pair[1].cycle_string())

m = word_element_g3(build_m())
print("\nThe word m flips exactly two edges in place:")
print("  flips:", m.flip, " (positions c and g)")

print("\nExact orders from stabilizer chains on the stickers:")
print("  |G2| =", ctx.chain("g2").order(), "= 3^7 * 8! =", 3**7 * math.factorial(8))
print("  |G3| =", ctx.chain("g3").order())
print("        = 2^11 * 3^7 * 12! * 8!/2 =", 2**11 * 3**7 * math.factorial(12) * math.factorial(8) // 2)
print("  |alpha(G3)| =", ctx.chain("p").order(), "= 12! * 8!/2")

r2 = section_g2_in_g3(word_element_g2("R"))
print("\nThe 2x2 group embeds in the 3x3 group; the image of the R turn")
print("acts on corners as on the 2x2 and swaps edges b,c to fix the sign:")
print("  edges:", r2.pair[0].cycle_string(letters=True), " corners:", r2.pair[1].cycle_string())
