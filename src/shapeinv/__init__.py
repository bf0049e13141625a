"""Shape-invariance verification toolkit for pairwise-interacting solvable
models: ladder-operator factorizations, identity residual checks, algebraic
and grid spectra, product ground states, and supersymmetric extensions.
"""

from .models import (
    NBodyModel,
    PairPrepotential,
    Prepotential1D,
    check_pair_condition,
    make_nbody_model,
    make_pair_prepotential,
    make_prepotential_1d,
    model_from_config,
    model_to_config,
    remainder_1d,
    remainder_nominal,
    remainder_shift,
)

__version__ = "0.1.0"

__all__ = [
    "NBodyModel", "PairPrepotential", "Prepotential1D",
    "check_pair_condition", "make_nbody_model",
    "make_pair_prepotential", "make_prepotential_1d", "model_from_config",
    "model_to_config", "remainder_1d", "remainder_nominal", "remainder_shift",
    "__version__",
]
