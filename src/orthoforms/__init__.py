"""Numerics for the tube-domain geometry of signature (2, n) lattices and the
singular form-valued kernels living on it."""
from __future__ import annotations

__version__ = "1.0.0"

from .quadratic import (  # noqa: E402
    Isometry, LatticeError, QuadraticLattice, enumerate_majorant,
    lattice_from_config, standard_lattice,
)
from .domain import (  # noqa: E402
    BoundaryError, ComponentError, DomainPoint, WittFrame, act, q_plus_minus,
    sample_point, sample_vector,
)
from .kernels import (  # noqa: E402
    KernelSingularity, omega_kernel, p_components, p_tilde_components,
)
from .series import (  # noqa: E402
    SeriesError, SeriesSpec, eval_Omega, eval_omega, modularity_defect,
)
from .cycles import (  # noqa: E402
    CycleChart, CycleError, QuadratureError, cycle_integral_C,
    cycle_integral_T, tube_boundary_integral,
)
from .special import limit_constant  # noqa: E402
from .suites import ConfigError, RunConfig, RunParams, run  # noqa: E402

__all__ = [
    "__version__",
    "BoundaryError", "ComponentError", "ConfigError", "CycleChart",
    "CycleError", "DomainPoint", "Isometry",
    "KernelSingularity", "LatticeError", "QuadraticLattice", "RunConfig",
    "RunParams", "SeriesError", "SeriesSpec", "WittFrame", "act",
    "cycle_integral_C", "cycle_integral_T", "enumerate_majorant",
    "eval_Omega", "eval_omega", "lattice_from_config", "limit_constant",
    "modularity_defect", "omega_kernel", "p_components",
    "p_tilde_components", "q_plus_minus", "run",
    "sample_point", "sample_vector", "standard_lattice",
    "tube_boundary_integral",
]
