"""repro — local approximation algorithms for max-min linear programs.

A from-scratch reproduction of

    P. Floréen, J. Kaasinen, P. Kaski, J. Suomela,
    "An Optimal Local Approximation Algorithm for Max-Min Linear Programs",
    Proc. SPAA 2009.

Public API highlights
---------------------
* :class:`repro.core.MaxMinInstance`, :class:`repro.core.InstanceBuilder` —
  problem representation.
* :func:`repro.core.solve_maxmin_lp` — exact optimum (ground truth).
* :class:`repro.algo.LocalMaxMinSolver` — the paper's local algorithm with
  the Theorem 1 guarantee ``ΔI (1 − 1/ΔK)(1 + 1/(R − 1))``.
* :class:`repro.algo.SafeAlgorithm` — the prior-work factor-``ΔI`` baseline.
* :mod:`repro.distributed` — synchronous message-passing runtime and the
  distributed realisation of the algorithm.
* :mod:`repro.generators` — workload generators (random, regular, cycles,
  grids, sensor networks, bandwidth allocation, lower-bound gadgets).
* :mod:`repro.oracle` — per-node reference implementations that the
  equivalence tests pin the production paths to (not imported here).
"""

from .core import (
    InstanceBuilder,
    LPResult,
    MaxMinInstance,
    Solution,
    optimum_value,
    preprocess,
    solve_maxmin_lp,
)
from .algo import (
    Certificate,
    LocalMaxMinSolver,
    SafeAlgorithm,
    SpecialFormLocalSolver,
    theorem1_ratio,
)
from .transforms import to_special_form

__version__ = "1.1.0"

__all__ = [
    "MaxMinInstance",
    "InstanceBuilder",
    "Solution",
    "LPResult",
    "solve_maxmin_lp",
    "optimum_value",
    "preprocess",
    "LocalMaxMinSolver",
    "SpecialFormLocalSolver",
    "SafeAlgorithm",
    "Certificate",
    "theorem1_ratio",
    "to_special_form",
    "__version__",
]
