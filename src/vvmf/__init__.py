"""Exact arithmetic for monic modular differential equations and
vector-valued modular forms on the full modular group."""

from types import ModuleType as _ModuleType

from .classify import (
    HpSeries,
    MultiplierSpec,
    RationalAngle,
    RepInput,
    classification,
    dim4_parity,
    dim5_data,
    hp_dimension,
    minimal_admissible_set,
    multiplier_values,
    t_determined_heuristic,
)
from .deriv import (
    VvmfVector,
    derivative_vector,
    modular_derivative,
)
from .errors import (
    CongruentRootsError,
    DivisibilityError,
    FactorizationError,
    InternalCheckError,
    ParityUnsolvableError,
    PrecisionError,
    PreconditionError,
    ReducibilityBoundaryError,
    TDeterminedRequiredError,
    UnsupportedInputError,
    VvmfError,
)
from .forms import GradedFormBasis, delta, eisenstein, eta_power, mspace_basis
from .frobenius import monodromy_T, solve_fundamental_system, theta_form
from .mmde import Mmde, appendix_family, apply, indicial_polynomial, unique_operator
from .modstruct import (
    appendix_demo,
    d_iterate_generators,
    delta_divisible_combination,
    descend_by_delta,
    eis_candidates,
    module_products,
    structure,
    vector_rank,
    weight_space_dimension,
)
from .qseries import QSeries, add, divide_exact, mul, q_derivative
from .wronskian import modular_wronskian, wronskian_factorization

__version__ = "0.1.0"

# every public name imported above, less the submodules that importing binds
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
