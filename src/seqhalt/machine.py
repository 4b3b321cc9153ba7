"""Executes a program's behaviour against a service family.

Each step performs the current node's action on the service named by its
focus and follows the branch the reply selects.  Termination yields the
delivered boolean and the final family.  Divergence is reported only
when proven: deadlock, a missing focus, a Divergent reply, or a repeated
configuration.  One step loop serves both evaluators; they differ only
in the configuration key.  ``run`` keys on (node, family state), so
loops that keep growing the state exhaust their fuel instead: the
evaluator never claims a divergence it cannot prove.  ``run_total`` keys
on the node only, which is sound when every reply involved has a
declared state-independent value: each node then has a fixed successor,
so revisiting one closes an infinite loop.

A tau action is stepped like a basic one whose reply is always True,
without touching a service.  ``run`` reports each step, as it happens,
to an optional trace hook: one formatted line per step.

``derived_operation`` is the partial operation a program induces over a
unit: one ``run`` against the singleton family holding the unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Union

from .program import FOCUS, BasicInstruction, InputError, Program, _Sentinel, foreign_action
from .services import (
    Reply,
    Service,
    ServiceFamily,
    UnitService,
    empty_family,
    family_key,
    format_family,
    service_step,
    singleton_family,
)
from .threads import PostCond, RegularThread, StopFalse, StopTrue, Tau, extract
from .units import FunctionalUnit, interface

DEFAULT_FUEL = 10**6


class DivergenceCause(enum.Enum):
    DEADLOCK = "deadlock"
    MISSING_FOCUS = "missing-focus"
    REPLY_D = "reply-d"
    CYCLE = "cycle"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Converged:
    reply: bool
    family: ServiceFamily
    steps: int


@dataclass(frozen=True)
class ProvenDivergent:
    cause: DivergenceCause
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


Outcome = Union[Converged, ProvenDivergent, FuelExhausted]


def _as_thread(x: Program | RegularThread) -> RegularThread:
    return x if isinstance(x, RegularThread) else extract(x)


def _step_loop(
    thread: RegularThread,
    family: ServiceFamily,
    fuel: float,
    trace: Callable[[str], None] | None,
    state_key: Callable[[dict[str, Service]], Hashable],
) -> Outcome:
    """The step loop of both evaluators.  A configuration is the current
    node paired with ``state_key`` of the family's entries; a repeated
    configuration proves a cycle."""
    entries = dict(family.entries)
    current = thread.root
    steps = 0
    seen: set = set()
    while True:
        node = thread.nodes[current]
        if isinstance(node, StopTrue):
            return Converged(True, ServiceFamily(entries), steps)
        if isinstance(node, StopFalse):
            return Converged(False, ServiceFamily(entries), steps)
        if not isinstance(node, PostCond):
            return ProvenDivergent(DivergenceCause.DEADLOCK, steps)
        configuration = (current, state_key(entries))
        if configuration in seen:
            return ProvenDivergent(DivergenceCause.CYCLE, steps)
        if steps >= fuel:
            return FuelExhausted(steps)
        seen.add(configuration)
        action = node.action
        if isinstance(action, Tau):
            reply = Reply.TRUE
        else:
            focus = action.focus
            service = entries.get(focus)
            if service is None:
                return ProvenDivergent(DivergenceCause.MISSING_FOCUS, steps)
            reply, successor = service_step(service, action.method)
            if reply is Reply.DIVERGENT:
                return ProvenDivergent(DivergenceCause.REPLY_D, steps)
            entries[focus] = successor
        steps += 1
        if trace is not None:
            trace(f"pc={current} action={action} reply={reply} state={format_family(entries)}")
        current = node.then_ref if reply is Reply.TRUE else node.else_ref


def run(
    x: Program | RegularThread,
    family: ServiceFamily,
    fuel: int = DEFAULT_FUEL,
    trace: Callable[[str], None] | None = None,
) -> Outcome:
    """Small-step execution; deterministic and monotone in fuel.

    ``trace``, when given, is called once per step, in step order and
    before the next step runs, with the line
    ``pc=<node> action=<action> reply=<T|F> state=<family literal>``.
    """
    if fuel < 1:
        raise InputError("fuel must be at least 1")
    return _step_loop(_as_thread(x), family, fuel, trace, family_key)


def run_total(x: Program | RegularThread, family: ServiceFamily) -> Outcome:
    """Run to a definite outcome when every method involved has a declared
    state-independent reply.

    Then each node has a fixed successor, so revisiting a node closes an
    infinite loop: divergence is proven by pigeonhole instead of fuel.
    """
    thread = _as_thread(x)
    for node in thread.nodes.values():
        if isinstance(node, PostCond) and isinstance(node.action, BasicInstruction):
            service = family.entries.get(node.action.focus)
            if isinstance(service, UnitService):
                op = service.unit.operations.get(node.action.method)
                if op is not None and op.constant_reply is None:
                    raise InputError(
                        f"{node.action} has no declared constant reply; use run()"
                    )
    # The configuration is the node only.  A run without repeated nodes
    # takes fewer steps than the thread has nodes, so it needs no fuel.
    return _step_loop(thread, family, float("inf"), None, lambda entries: None)


def reply(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> Reply | None:
    """Boolean delivered at termination, Divergent on proven divergence,
    None when the fuel ran out first."""
    outcome = run(x, family, fuel)
    if isinstance(outcome, Converged):
        return Reply.from_bool(outcome.reply)
    if isinstance(outcome, ProvenDivergent):
        return Reply.DIVERGENT
    return None


def apply(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> ServiceFamily | None:
    """Family after running x against it; the empty family on proven
    divergence; None when the fuel ran out first."""
    outcome = run(x, family, fuel)
    if isinstance(outcome, Converged):
        return outcome.family
    if isinstance(outcome, ProvenDivergent):
        return empty_family()
    return None


def converges(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> bool | None:
    """True on termination, False on proven divergence, None if unknown."""
    outcome = run(x, family, fuel)
    if isinstance(outcome, Converged):
        return True
    if isinstance(outcome, ProvenDivergent):
        return False
    return None


# --- derived method operations ------------------------------------------


@dataclass(frozen=True)
class Applied:
    reply: bool
    state: Any


UNDEFINED = _Sentinel("UNDEFINED")
UNKNOWN = _Sentinel("UNKNOWN")


def derived_operation(
    x: Program,
    unit: FunctionalUnit,
    fuel: int = DEFAULT_FUEL,
) -> Callable[[Any], Applied | _Sentinel]:
    """Pointwise evaluator for the partial operation a program induces
    over a unit: run the program against the single service ``FOCUS``
    holding the unit in the given state.

    Returns Applied(reply, state) on termination, UNDEFINED on proven
    divergence, UNKNOWN when the fuel runs out first.
    """
    action = foreign_action(x, interface(unit))
    if action is not None:
        raise InputError(
            f"{action} does not use focus {FOCUS!r}"
            if action.focus != FOCUS
            else f"{action.method!r} not in interface of {unit.name}"
        )
    thread = extract(x)

    def evaluate(state: Any) -> Applied | _Sentinel:
        outcome = run(thread, singleton_family(FOCUS, UnitService(unit, state)), fuel)
        if isinstance(outcome, Converged):
            service = outcome.family.entries[FOCUS]
            return Applied(outcome.reply, service.state)
        if isinstance(outcome, ProvenDivergent):
            return UNDEFINED
        return UNKNOWN

    return evaluate
