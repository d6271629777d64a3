"""Exact-arithmetic toolkit for contact surgery diagrams on Seifert fibered spaces.

Every value is exact: the kernels run on integers (numerator and
denominator pairs where a rational is needed) and hand rationals across
the API as fractions.Fraction; no floating point is used anywhere.

The package root re-exports the public names of its seven layers,
exactly as each module lists them in its own __all__.  Importing it
loads contfrac, seifert, intmat and homology, which every subcommand
runs; homology is loaded here so that the name `homology` stays bound
to the function, not to the submodule.  legendrian, gauge and lattice
load on first use (PEP 562): reading one of their public names, or the
layer itself, from the root imports that layer and binds its names
here, and reading __all__ (as `from contactsurgery import *` does)
imports all three.  Any other missing name raises AttributeError and
imports nothing, so `from contactsurgery import cli` loads cli alone.
"""

from .contfrac import *  # noqa: F403
from .seifert import *  # noqa: F403
from .intmat import *  # noqa: F403
from .homology import *  # noqa: F403

__version__ = "0.1.0"

# each lazy layer's __all__, written out so that no name needs an import to
# find its layer; test_exports fails on a name missing here
_LAZY = {
    "legendrian": (
        "LegendrianComponent",
        "PlusMinusDiagram",
        "StabilizationChoice",
        "convert",
        "enumerate_choices",
        "smooth_coefficient",
    ),
    "gauge": (
        "MoyVerdict",
        "omega_red_long",
        "omega_red_closed",
        "d3_certificate",
        "moy_check",
    ),
    "lattice": (
        "Lattice",
        "DiagonalEmbedding",
        "lambda_q",
        "lambda_q_certificate",
        "is_negative_definite",
        "embeds_in_diagonal",
        "nonfillability_obstruction",
    ),
}
_OWNER = {name: layer for layer, names in _LAZY.items() for name in (layer, *names)}


def __getattr__(name: str):
    """A lazy layer, one of its public names, or __all__; see the module docstring."""
    global __all__
    if name in _OWNER:
        _load(_OWNER[name])
        return globals()[name]
    if name == "__all__":
        layers = ("contfrac", "legendrian", "seifert", "intmat", "homology", "gauge", "lattice")
        __all__ = [entry for layer in layers for entry in _load(layer).__all__] + ["__version__"]
        return __all__
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, "__all__"})


def _load(layer: str):
    """Import one layer and bind its public names here; return the module."""
    from importlib import import_module

    module = import_module(f".{layer}", __name__)
    globals().update((name, getattr(module, name)) for name in module.__all__)
    return module
