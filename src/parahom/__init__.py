"""parahom: parabolic homogenization toolkit.

Effective coefficients from periodic cell problems, finite-volume solvers
for divergence-form parabolic Dirichlet problems with rapidly oscillating
coefficients on truncated half spaces and Lipschitz cylinders, and the
potential-theoretic diagnostic battery (caloric measure, kernel densities,
doubling, reverse Holder, Harnack, Green-function estimates).
"""

__version__ = "0.1.0"

from . import cell, coeffs, geometry, harness, maximal, oracles, pde, potential

__all__ = [
    "__version__",
    "geometry",
    "coeffs",
    "cell",
    "pde",
    "potential",
    "maximal",
    "harness",
    "oracles",
]
