"""Exact lattice-polytope invariants and stable-birational-volume obstruction ledgers."""

from .polytope import (
    AffineChart,
    AffineUnimodularMap,
    LatticePolytope,
    RationalPolytope,
    cartesian_product,
    convex_union,
    dilate,
    hull,
    translate,
    unimodular_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "AffineChart",
    "AffineUnimodularMap",
    "LatticePolytope",
    "RationalPolytope",
    "cartesian_product",
    "convex_union",
    "dilate",
    "hull",
    "translate",
    "unimodular_equivalence",
    "__version__",
]
