import types

import rindler

PUBLIC = {
    "ChoiMatrix", "CpVerdict", "KrausMap", "amplitude_damping", "apply",
    "apply_to_second", "choi_matrix", "completeness_defect", "compose",
    "inverse_unruh", "is_cp", "kraus_from_choi", "unruh_kraus",
    "MeasureReport", "TwoQubitDecomposition", "bell_B", "concurrence",
    "decompose", "dephased", "f_max", "measure_report", "mutual_information",
    "qmid", "teleport_fidelity_mc",
    "BlochVector", "SpheroidReport", "bloch_of", "image_of_pure",
    "radius_from_center", "spheroid_report", "surface_grid",
    "EigenDecomposition", "JacobiConvergenceError", "eig_hermitian",
    "partial_trace", "pure_qubit", "sqrt_psd",
    "validate_density_matrix", "von_neumann_entropy",
    "cos_r", "mixing_angle", "shared_state", "three_mode_state", "unruh_temperature",
}


def test_public_names_are_frozen():
    assert len(rindler.__all__) == len(PUBLIC) == 44
    assert set(rindler.__all__) == PUBLIC


def test_star_import_binds_the_public_names_and_no_module():
    namespace = {}
    exec("from rindler import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())
