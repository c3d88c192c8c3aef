"""sinklab: exact computation of right Engel sinks, gamma-k value sets, and
Fitting-type structure on finite groups given as full multiplication tables."""

__version__ = "0.1.0"

from .engel import (
    SinkReport,
    gamma_values,
    is_left_engel,
    right_engel_sink,
    sink_profile,
    sinks,
)
from .families import FamilySpec, build
from .group import (
    DEFAULT_ORDER_CAP,
    ElementSet,
    GroupTable,
    centralizer,
    close_generators,
    direct_product,
    is_normal,
    is_subgroup,
    quotient,
    semidirect_product,
    subgroup_closure,
    subgroup_table,
    validate_table,
)
from .perm import Permutation, format_cycles, parse_cycles
from .specfile import GroupSpec, build_spec, emit_spec, parse_spec_file, parse_spec_text
from .structure import (
    fitting_subgroup,
    is_nilpotent,
    lower_central_series,
    nilpotency_class,
    nilpotent_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
