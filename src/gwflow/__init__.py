"""Numerics for the volume-normalized Ricci flow on three-summand
homogeneous spaces, centered on the family ``P_n`` of dimension ``8n - 4``."""

# every module's public names (its own __all__); ``from gwflow import *``
# gives the ones listed in __all__ below
from .spaces import *  # noqa: F401,F403
from .flows import *  # noqa: F401,F403
from .integrate import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403
from .portrait import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "GWSpace",
    "Metric",
    "PhasePoint",
    "RicciSpectrum",
    "make_pn",
    "kn",
    "ricci_coefficients",
    "volume",
    "normalize_to_unit_volume",
    "x3_from_volume_one",
    "to_phase",
    "from_phase",
    "ricci_phase",
    "k_positive",
    "negative_count",
    "smallest_k_positive",
    "RangeExceededError",
    "ReparamInvalidError",
    "rhs_full",
    "rhs_reduced_x",
    "rhs_phase",
    "rhs_submersion",
    "rhs_reparam",
    "submersion_fixed_points",
    "field_full",
    "field_reduced",
    "field_phase",
    "field_reparam",
    "field_submersion",
    "Termination",
    "IntegratorConfig",
    "Monitor",
    "Event",
    "Trajectory",
    "NoBracketError",
    "integrate",
    "locate_sign_change",
    "BadInitialDataError",
    "ExperimentConfig",
    "ExperimentReport",
    "default_initial_phi",
    "run_theorem_experiment",
    "asymptotic_slope",
    "decay_bound_check",
    "divergence_check",
    "positivity_timeline",
    "CheckResult",
    "run_invariant_checks",
    "render_portrait",
]
