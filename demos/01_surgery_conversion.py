"""Turn rational contact surgeries into (+1)/(-1) chains.

Three worked coefficients: a negative one (pure Legendrian surgery
chain), a reciprocal-integer one (pure (+1)-pushoffs), and a general
positive one that mixes both.  The final block enumerates every
stabilization choice of the mixed example and shows the rotation
numbers each one produces.
"""

from fractions import Fraction

from contactsurgery import convert, enumerate_choices, smooth_coefficient


def show(label, r):
    diagram = convert(Fraction(r))
    print(f"{label}: contact {r}-surgery")
    for i, c in enumerate(diagram.components):
        parent = "root" if i == 0 else f"#{i - 1}"
        print(
            f"  #{i}: ({c.contact_coefficient:+d})-surgery on a pushoff of {parent},"
            f" {c.stab_count} stabilizations, tb={c.tb},"
            f" smooth framing {smooth_coefficient(c)}"
        )
    print(f"  stabilization counts {list(diagram.stab_counts)},"
          f" {diagram.choice_count} inequivalent sign choices\n")
    return diagram


show("negative", "-4/3")
show("reciprocal", "1/3")
diagram = show("mixed", "3/5")

print("every stabilization choice of the mixed chain:")
for choice in enumerate_choices(diagram):
    print(f"  signs {choice.signs} -> rotations {choice.rotations}")
