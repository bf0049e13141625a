"""Shape-invariance verification toolkit for pairwise-interacting solvable
models: ladder-operator factorizations, identity residual checks, algebraic
and grid spectra, product ground states, and supersymmetric extensions.
"""

from .models import (
    NBodyModel,
    PairPrepotential,
    Prepotential1D,
    make_nbody_model,
    make_pair_prepotential,
    make_prepotential_1d,
    remainder_shift,
)

__version__ = "0.1.0"

__all__ = [
    "NBodyModel", "PairPrepotential", "Prepotential1D",
    "make_nbody_model", "make_pair_prepotential", "make_prepotential_1d",
    "remainder_shift",
    "__version__",
]
