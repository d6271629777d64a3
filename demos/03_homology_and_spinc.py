"""First homology, the tracked fiber class, and torsion Spin^c structures.

The star-shaped presentation of M(g, n; (alpha, 1)) has a 2x2 linking
matrix whose cokernel is cyclic of order n*alpha + 1; the meridian mu of
the exceptional fiber generates it.  Spin^c structures are offsets from
the canonical one in multiples of PD(mu), and at n = 2g the first Chern
class is pinned down exactly.  distinct_witness turns the c1 orders into
a certificate that several structures are pairwise non-isomorphic.
"""

from contactsurgery import (
    SeifertInvariants,
    distinct_witness,
    homology,
    mu_order,
    presentation,
    spinc_offset,
)

inv = SeifertInvariants(1, 2, ((3, 1),))
p = presentation(inv)
print(f"linking matrix of M(1, 2; (3,1)): {p.matrix}")
h = homology(p)
print(f"H1 = Z^{h.free_rank} + {' + '.join(f'Z/{d}' for d in h.torsion)}")
print(f"order of the fiber meridian: {mu_order(inv)} (closed form 2g*alpha+1 = 7)\n")

print("torsion Spin^c structures by rotation number:")
for r in (-3, -1, 1, 3):
    # r = -alpha is admissible for sign -1 only; at n = 2g both signs agree
    cls = spinc_offset(1, 2, 3, 1 if r > -3 else -1, r)
    print(f"  r={r:+d}: offset {cls.offset} (mod {cls.modulus}),"
          f" c1 = {cls.c1_coefficient} * PD(mu), order {cls.c1_order}")

print("\naway from n = 2g the offset still makes sense, c1 does not:")
cls = spinc_offset(1, 4, 3, -1, 1)
print(f"  (g,n,alpha,sign,r) = (1,4,3,-,1): offset {cls.offset}"
      f" (mod {cls.modulus}), c1 coefficient {cls.c1_coefficient}\n")

witness = distinct_witness(1, 2)
print(f"distinctness certificate for two structures at g=1:")
print(f"  alpha = {witness.alpha}, rotations {witness.rotations},"
      f" c1 orders {witness.orders} (pairwise distinct)")
