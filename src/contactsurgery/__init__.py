"""Exact-arithmetic toolkit for contact surgery diagrams on Seifert fibered spaces.

Every value is exact: the kernels run on integers (numerator and
denominator pairs where a rational is needed) and hand rationals across
the API as fractions.Fraction; no floating point is used anywhere.

The package root re-exports the public names of its seven layers,
exactly as each module lists them in its own __all__.
"""

from . import contfrac, gauge, homology, intmat, lattice, legendrian, seifert

__version__ = "0.1.0"

# collected before the star imports: they rebind `homology` to the function
__all__ = [
    name
    for module in (contfrac, legendrian, seifert, intmat, homology, gauge, lattice)
    for name in module.__all__
] + ["__version__"]

from .contfrac import *  # noqa: E402,F403
from .legendrian import *  # noqa: E402,F403
from .seifert import *  # noqa: E402,F403
from .intmat import *  # noqa: E402,F403
from .homology import *  # noqa: E402,F403
from .gauge import *  # noqa: E402,F403
from .lattice import *  # noqa: E402,F403
