"""Instruction sequences over service families, with a halting lab.

The pieces: ``program`` (syntax, text and bit encodings), ``threads``
(behaviour extraction, projection, bisimilarity), ``units`` and
``services`` (functional units, named service families), ``machine``
(apply/reply/convergence with proven-divergence detection) and
``halting`` (decision procedures, the computable halting oracle, and
diagonal refuters for claimed solvers and interpreters).
"""

from .machine import Converged, FuelExhausted, ProvenDivergent, apply, converges, reply, run, run_total
from .program import (
    NOT_AN_ENCODING,
    Program,
    decode,
    encode,
    enumerate_programs,
    parse,
    render,
)
from .services import (
    EMPTY_SERVICE,
    Reply,
    ServiceFamily,
    UnitService,
    compose,
    empty_family,
    encapsulate,
    parse_family,
    format_family,
    service_step,
    singleton_family,
)
from .threads import bisimilar, extract, project, projections_agree
from .units import (
    TapeState,
    at_left,
    counter_unit,
    derived_operation,
    dup_step,
    dup_unit,
    dup_witness_program,
    interface,
    parse_tape,
    format_tape,
    restrict,
    tape_basic_unit,
    unit_by_name,
)
from .halting import (
    check_interpreter,
    decide_halting_dup,
    decide_halting_empty_ext,
    diag_interpreter,
    diag_solver,
    diag_solver_alt,
    f2d,
    halting_empty_unit,
    halting_op_step,
    leads_to_first_application,
    swap,
    validate_solver,
)

__version__ = "0.1.0"
