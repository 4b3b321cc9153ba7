"""Instruction sequences over service families, with a halting lab.

The pieces, each importing only the ones before it: ``program``
(syntax, text and bit encodings), ``threads`` (behaviour extraction,
projection, bisimilarity), ``units`` (functional units, the computable
halting oracle among the stock ones), ``services`` (named service
families), ``machine`` (apply/reply/convergence with proven-divergence
detection, and the derived operation of a program over a unit),
``halting`` (decision procedures and diagonal refuters for claimed
solvers and interpreters) and ``cli``.
"""

from .machine import Converged, FuelExhausted, ProvenDivergent, apply, converges, derived_operation, reply, run, run_total
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
    dup_step,
    dup_unit,
    dup_witness_program,
    interface,
    parse_tape,
    format_tape,
    halting_empty_unit,
    halting_op_step,
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
    leads_to_first_application,
    swap,
    validate_solver,
)

__version__ = "0.1.0"
