"""Diagonal lattice embeddings, the certified search and the chain lemma.

Small negative definite lattices usually embed in some diagonal lattice
(Z^m with minus the identity form); the search finds an explicit integer
matrix when they do.  The rank-6 obstruction lattice lambda_3 does not
embed in any of them, and the exhaustive search certifies that.  The
genus obstruction proves the same for every lambda_q by the chain lemma
instead, in O(q) with no search, which rules out negative definite
fillings in the genus ranges where lambda_q arises.
"""

from contactsurgery import (
    Lattice,
    embeds_in_diagonal,
    lambda_q,
    nonfillability_obstruction,
)

chain = Lattice(gram=((-2, 1), (1, -2)), rank=2)
emb = embeds_in_diagonal(chain)
print(f"(-2)-chain of length 2 embeds as rows {emb.vectors}")
print(f"  check pairings: {[[emb.pairing(i, j) for j in range(2)] for i in range(2)]}\n")

lat = lambda_q(3)
print(f"lambda_3: rank {lat.rank}, gram rows:")
for row in lat.gram:
    print(f"  {row}")
result = embeds_in_diagonal(lat)
print(f"embedding found: {result}\n")

report = nonfillability_obstruction(1)
print(f"genus 1 obstruction: d={report['d']}, q={report['q']},"
      f" rank {report['rank']}")
print(f"  obstruction holds: {report['obstruction_holds']}")
print(f"  {report['narrative']}")
