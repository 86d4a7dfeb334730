"""The package surface: one sorted list of public names, each a library object."""

from __future__ import annotations

from types import ModuleType

import vvmf

PUBLIC = [
    "CongruentRootsError",
    "DivisibilityError",
    "FactorizationError",
    "GradedFormBasis",
    "HpSeries",
    "InternalCheckError",
    "Mmde",
    "MultiplierSpec",
    "ParityUnsolvableError",
    "PrecisionError",
    "PreconditionError",
    "QSeries",
    "RationalAngle",
    "ReducibilityBoundaryError",
    "RepInput",
    "TDeterminedRequiredError",
    "UnsupportedInputError",
    "VvmfError",
    "VvmfVector",
    "add",
    "appendix_demo",
    "appendix_family",
    "apply",
    "classification",
    "cyclic_structure",
    "d_iterate_generators",
    "delta",
    "delta_divisible_combination",
    "derivative_vector",
    "descend_by_delta",
    "dim4_parity",
    "dim4_structure",
    "dim5_data",
    "dim5_structure",
    "divide_exact",
    "eis_candidates",
    "eisenstein",
    "eta_power",
    "hp_dimension",
    "indicial_polynomial",
    "iterate_derivative",
    "minimal_admissible_set",
    "modular_derivative",
    "modular_wronskian",
    "module_products",
    "monodromy_T",
    "mspace_basis",
    "mul",
    "multiplier_values",
    "q_derivative",
    "solve_fundamental_system",
    "t_determined_heuristic",
    "theta_form",
    "unique_operator",
    "vector_rank",
    "weight_lower_bound",
    "weight_space_dimension",
    "wronskian_factorization",
]


def test_all_is_sorted_and_has_no_duplicates():
    assert vvmf.__all__ == sorted(set(vvmf.__all__))


def test_all_is_the_public_surface():
    assert vvmf.__all__ == PUBLIC
    namespace: dict = {}
    exec("from vvmf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    for name in PUBLIC:
        assert not isinstance(getattr(vvmf, name), ModuleType), name
