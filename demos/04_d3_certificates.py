"""d3 invariants by two routes and the non-fillability gap.

omega_red has a long form built from Dedekind-type sums and a closed
form in (g, n, alpha, r); they agree exactly on every admissible input.
The d3 invariant of the contact structure comes from the closed form,
the d3 of the canonical plane field of its Spin^c structure from the
long form (gauge.d3_certificate takes one value of each), and their
difference is always exactly 2g + 1.  A nonzero gap certifies that no
filling can exist.
"""

from contactsurgery import d3_certificate, dedekind_context, omega_red_closed, omega_red_long


def certificate(g, n, alpha, sign, r):
    """The d3 pair, gap and verdict from one value of each omega_red route."""
    point = (g, n, alpha, sign, r)
    return d3_certificate(g, omega_red_long(*point), omega_red_closed(*point))


g, n, alpha, sign, r = 1, 2, 3, 1, 1
c = dedekind_context(g, n, alpha, sign, r)
print(f"ingredients at (g,n,alpha,sign,r) = (1,2,3,+,1):")
print(f"  l={c.l} rho={c.rho} gamma={c.gamma} S={c.S} S_rho={c.S_rho} F_rho={c.F_rho}")
print(f"  omega_red long form   = {omega_red_long(g, n, alpha, sign, r)}")
print(f"  omega_red closed form = {omega_red_closed(g, n, alpha, sign, r)}\n")

print(" alpha |  d3 contact | d3 canonical | gap")
for alpha in range(1, 8):
    r = 1 if alpha % 2 == 1 else 2
    verdict = certificate(g, n, alpha, sign, r)
    contact, canonical = verdict["d3_contact"], verdict["d3_canonical"]
    print(f"  {alpha:4d} | {str(contact):>11} | {str(canonical):>12} |"
          f" {contact - canonical}")

print()
verdict = certificate(2, 5, 3, -1, 1)
for key, value in verdict.items():
    print(f"  {key}: {value}")
