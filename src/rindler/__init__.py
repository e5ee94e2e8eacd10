"""Acceleration-induced qubit noise, from channel algebra to Bloch geometry.

The package models the thermal disturbance a uniformly accelerated
observer sees on one half of an entangled pair as a qubit channel:
operator-sum and Choi forms, correlation measures of the degraded
shared state, the image geometry on the Bloch sphere, and the formal
(non-completely-positive) inverse map.
"""

from types import ModuleType as _ModuleType

from .channels import (
    ChoiMatrix,
    CpVerdict,
    KrausMap,
    amplitude_damping,
    apply,
    apply_to_second,
    choi_matrix,
    completeness_defect,
    compose,
    inverse_unruh,
    is_cp,
    kraus_from_choi,
    unruh_kraus,
)
from .correlations import (
    MeasureReport,
    TwoQubitDecomposition,
    bell_B,
    concurrence,
    decompose,
    dephased,
    f_max,
    measure_report,
    mutual_information,
    qmid,
    teleport_fidelity_mc,
)
from .geometry import (
    BlochVector,
    SpheroidReport,
    bloch_of,
    image_of_pure,
    radius_from_center,
    spheroid_report,
    surface_grid,
)
from .qmat import (
    EigenDecomposition,
    JacobiConvergenceError,
    eig_hermitian,
    partial_trace,
    pure_qubit,
    sqrt_psd,
    validate_density_matrix,
    von_neumann_entropy,
)
from .unruh import cos_r, mixing_angle, shared_state, three_mode_state, unruh_temperature

__version__ = "0.1.0"

# The names imported above, in order; the submodules those imports bind are not public.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
