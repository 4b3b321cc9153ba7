"""Runs a program or a thread against a service family: ``run`` within a
fuel, ``run_total`` without one, and ``derived_operation``, the partial
operation a program induces over a unit.  A run reports divergence only
when it proves it; otherwise its fuel runs out.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence, Union

from .program import FOCUS, BasicInstruction, InputError, Program, _Sentinel, foreign_action
from .services import (
    Reply,
    Service,
    ServiceFamily,
    UnitService,
    _service_family,
    empty_family,
    format_family,
    service_step,
    singleton_family,
)
from .threads import (
    Deadlock, NodeId, PostCond, RegularThread, StopFalse, StopTrue, Tau, ThreadNode, _node, _resolve, extract
)
from .units import FunctionalUnit, interface

DEFAULT_FUEL = 10**6
_UNBOUNDED = float("inf")  # the fuel of ``run_total``: no step count reaches it


class DivergenceCause(enum.Enum):
    DEADLOCK = "deadlock"
    MISSING_FOCUS = "missing-focus"
    REPLY_D = "reply-d"
    CYCLE = "cycle"

    def __str__(self) -> str:
        return self.value


class Converged(NamedTuple):
    reply: bool
    family: ServiceFamily
    steps: int


class ProvenDivergent(NamedTuple):
    cause: DivergenceCause
    steps: int


class FuelExhausted(NamedTuple):
    steps: int


Outcome = Union[Converged, ProvenDivergent, FuelExhausted]


# The node kinds (see ``_resolve_node``).
_STEP, _TAU, _END = range(3)
_TERMINAL_ENDS = {StopTrue: True, StopFalse: False, Deadlock: DivergenceCause.DEADLOCK}


def _resolve_node(
    node: ThreadNode, entries: Mapping[str, Service], slots: Mapping[str, int]
) -> tuple:
    """``(kind, arg, step, then_ref, else_ref)`` of a node, given the
    family's entries and the slot of each focus that holds a unit.  The
    kind is one of three.  ``_STEP``, a step on a unit, carries its slot
    in ``arg``.  ``_TAU``, a tau step, is a step whose reply is True and
    which touches no service.  ``_END`` carries its reply or its
    ``DivergenceCause``, a deadlock's among them, in ``arg`` and, in
    place of ``step``, the steps reaching it costs: 1 at a node stuck on
    a missing focus or method, which attempts a step, and 0 at a
    terminal."""
    kind = type(node)
    if kind is not PostCond:
        return _END, _TERMINAL_ENDS[kind], 0, None, None
    action, then_ref, else_ref = node
    if type(action) is Tau:
        return _TAU, None, None, then_ref, else_ref
    service = entries.get(action.focus)
    if service is None:
        return _END, DivergenceCause.MISSING_FOCUS, 1, None, None
    step = service.unit.steps.get(action.method) if type(service) is UnitService else None
    if step is None:
        return _END, DivergenceCause.REPLY_D, 1, None, None
    return _STEP, slots[action.focus], step, then_ref, else_ref


def _family(family: ServiceFamily, slots: Mapping[str, int], states: Sequence[Any]) -> ServiceFamily:
    """``family`` with each unit's state taken from its slot, in public
    form: ``family`` itself when every slot still holds the state it
    started with."""
    entries = family.entries
    changed = None
    for focus, slot in slots.items():
        service = entries[focus]
        if states[slot] is not service.state:
            if changed is None:
                changed = dict(entries)
            unit = service.unit
            changed[focus] = UnitService(unit, unit.export_state(states[slot]))
    return family if changed is None else _service_family(changed)


def _advance(resolved: dict, node: Any, states: list[Any]) -> Any:
    """The node after ``node``, a resolved ``_STEP`` or ``_TAU`` node,
    whose step runs on ``states`` in place."""
    kind, arg, step, then_ref, else_ref = resolved[node]
    if kind == _STEP:
        reply, states[arg] = step(states[arg])
    else:
        reply = True
    return then_ref if reply else else_ref


def _cycle(resolved: dict, start: int, node: Any, states: list[Any], period: int, fuel: int) -> Outcome:
    """The outcome of a run that enters a cycle of ``period`` steps at
    some step mu, given its configuration ``(node, states)`` at a step
    ``start`` <= mu: CYCLE at mu + ``period`` if that is at most
    ``fuel``, else FUEL at ``fuel``.

    Two walkers step ``period`` steps apart, the lead from its own copy
    of ``states``, until they meet, which they first do at mu (the
    second phase of R. P. Brent's cycle finding, BIT 20, 1980).  The
    replay stops once mu + ``period`` would pass ``fuel``.
    """
    lead, ahead = node, list(states)
    for _ in range(period):
        lead = _advance(resolved, lead, ahead)
    for mu in range(start, fuel - period + 1):
        if node == lead and states == ahead:
            return ProvenDivergent(DivergenceCause.CYCLE, mu + period)
        node = _advance(resolved, node, states)
        lead = _advance(resolved, lead, ahead)
    return FuelExhausted(fuel)


_NodeOf = Callable[[NodeId], ThreadNode]


def _start(x: Program | RegularThread) -> tuple[NodeId, _NodeOf]:
    """The root of ``x`` and its node lookup, by the thread's table or ``_node``."""
    if type(x) is RegularThread:
        return x.root, x.nodes.__getitem__
    return _resolve(x, 1), partial(_node, x)


def _step_loop(root: NodeId, node_of: _NodeOf, family: ServiceFamily, fuel: float) -> Outcome:
    """The step loop of both evaluators, from node ``root``.

    Each focus holding a unit gets a slot with that unit's state; the
    units stay fixed for the run, since a Divergent reply ends it.  The
    slots, the marks below and ``_cycle`` hold internal states (see
    ``units.FunctionalUnit``), so a configuration repeats internally
    exactly when it repeats publicly.  Each visited node is read by
    ``node_of`` and resolved once, into ``resolved``, by
    ``_resolve_node``.  An end whose cost takes the run past ``fuel`` is
    FUEL at ``fuel``.

    Under the fuel ``_UNBOUNDED`` (see ``run_total``) a configuration is
    the node alone: the table is the set of visited nodes, and a node
    found in it proves a cycle.  Under a finite ``fuel`` it is the node
    plus every slot's state.  The loop saves the configuration, the mark,
    at each power of two below ``fuel`` and at ``fuel``, and compares
    every step's configuration with it (R. P. Brent, BIT 20, 1980).  A
    configuration before a cycle never recurs, so a match at step s with
    the mark of step c proves a cycle of period exactly s - c, and the
    mark lies on it.  ``_cycle`` then finds where the cycle is entered,
    replaying from the mark before when its window up to this mark was at
    least the period long, and so saw the cycle if it lay on it, and from
    the root otherwise.  A cycle that closes by ``fuel`` passes the mark
    of ``fuel`` and meets it again within ``fuel`` steps, so no match by
    step 2 * ``fuel`` is FUEL at ``fuel``; so is a run that ends after
    step ``fuel``.
    """
    entries = family.entries
    slots: dict[str, int] = {}
    states: list[Any] = []
    for focus, service in entries.items():
        if type(service) is UnitService:
            slots[focus] = len(states)
            states.append(service.state)
    resolved: dict = {}
    current = root
    steps = 0
    # The node and states saved at step ``mark_step``, and those saved at
    # the mark before it, at ``before_step``.
    mark = marked = before = before_states = None
    mark_step = before_step = 0
    next_mark = 1
    while True:
        entry = resolved.get(current)
        if entry is None:
            entry = resolved[current] = _resolve_node(node_of(current), entries, slots)
        elif fuel is _UNBOUNDED:
            return ProvenDivergent(DivergenceCause.CYCLE, steps)
        kind, arg, step, then_ref, else_ref = entry
        if kind == _END:
            if steps + step > fuel:  # ``step`` holds what the end costs
                return FuelExhausted(fuel)
            if type(arg) is DivergenceCause:
                return ProvenDivergent(arg, steps)
            return Converged(arg, _family(family, slots, states), steps)
        # Under unbounded fuel neither test below can fire: a mark met again
        # is a repeat, which the table caught, and no step passes the fuel.
        if current == mark and states == marked:
            period = steps - mark_step
            # Before the first mark there is none: replay from the root.
            if before_states is None or mark_step - before_step < period:
                before_step, before, before_states = 0, root, [entries[f].state for f in slots]
            return _cycle(resolved, before_step, before, before_states, period, fuel)
        if steps == next_mark:
            if steps > fuel:
                return FuelExhausted(fuel)
            before_step, before, before_states = mark_step, mark, marked
            mark_step, mark, marked = steps, current, list(states)
            next_mark = fuel if steps < fuel <= 2 * steps else 2 * steps
        if kind == _STEP:
            reply, states[arg] = step(states[arg])
        else:
            reply = True
        steps += 1
        current = then_ref if reply else else_ref


def _trace(root: NodeId, node_of: _NodeOf, family: ServiceFamily, steps: int, trace: Callable[[str], None]) -> None:
    """The traced replay of ``run``: its first ``steps`` steps from
    ``root``, none of which ends it, on a copy of the family.  Each node
    is read by ``node_of`` once, into ``nodes``."""
    entries = dict(family.entries)
    nodes: dict = {}
    current = root
    for _ in range(steps):
        if current not in nodes:
            nodes[current] = node_of(current)
        action, then_ref, else_ref = nodes[current]
        if type(action) is Tau:
            reply = Reply.TRUE
        else:
            reply, entries[action.focus] = service_step(entries[action.focus], action.method)
        trace(f"pc={current} action={action} reply={reply} state={format_family(entries)}")
        current = then_ref if reply is Reply.TRUE else else_ref


def _check_fuel(fuel: int) -> None:
    if type(fuel) is not int:
        raise InputError(f"fuel must be an integer: {fuel!r}")
    if fuel < 1:
        raise InputError("fuel must be at least 1")


def run(
    x: Program | RegularThread,
    family: ServiceFamily,
    fuel: int = DEFAULT_FUEL,
    trace: Callable[[str], None] | None = None,
) -> Outcome:
    """Small-step execution; deterministic and monotone in fuel.

    A run whose outcome comes at step n, where n is ``fuel`` when the
    fuel runs out, takes at most 4n steps to find it: up to 2n when it
    has no outcome by its fuel, fewer than 4n to see a cycle entered at
    step mu with period lambda, n = mu + lambda.  Finding mu replays at
    most 2n + 1 steps more.  The run holds a fixed number of
    configurations whatever the fuel.

    ``trace``, when given, is called once per step, in step order and
    before the next step runs, with the line ``pc=<node> action=<action>
    reply=<T|F> state=<family literal>``.  The run is made untraced
    first; its outcome's steps are then taken again through
    ``services.service_step`` (``_trace``), so the lines stop at the
    step of the outcome.
    """
    _check_fuel(fuel)
    root, node_of = _start(x)
    outcome = _step_loop(root, node_of, family, fuel)
    if trace is not None:
        _trace(root, node_of, family, outcome.steps, trace)
    return outcome


def _check_constant_replies(thread: RegularThread, entries: Mapping[str, Service]) -> None:
    """Reject a thread acting on a unit method with no declared constant reply."""
    for node in thread.nodes.values():
        if type(node) is PostCond and type(node[0]) is BasicInstruction:
            action = node[0]
            service = entries.get(action.focus)
            if type(service) is UnitService and action.method in service.unit.varying:
                raise InputError(f"{action} has no declared constant reply; use run()")


def run_total(x: Program | RegularThread, family: ServiceFamily) -> Outcome:
    """Run to a definite outcome when every method involved has a declared
    state-independent reply.

    Then each node has a fixed successor, so revisiting a node closes an
    infinite loop: ``_step_loop`` may key on the node alone, and a run
    without a repeated node takes fewer steps than the thread has nodes,
    so it needs no fuel.  It extracts a program, to check every node it
    can reach, only when a unit of the family has a method with no
    declared constant reply.
    """
    entries = family.entries
    for service in entries.values():
        if type(service) is UnitService and service.unit.varying:
            x = x if type(x) is RegularThread else extract(x)
            _check_constant_replies(x, entries)
            break
    root, node_of = _start(x)
    return _step_loop(root, node_of, family, _UNBOUNDED)


def reply(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> Reply | None:
    """Boolean delivered at termination, Divergent on proven divergence,
    None when the fuel ran out first."""
    outcome = run(x, family, fuel)
    if type(outcome) is Converged:
        return Reply.from_bool(outcome.reply)
    return Reply.DIVERGENT if type(outcome) is ProvenDivergent else None


def apply(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> ServiceFamily | None:
    """Family after running x against it; the empty family on proven
    divergence; None when the fuel ran out first."""
    outcome = run(x, family, fuel)
    if type(outcome) is Converged:
        return outcome.family
    return empty_family() if type(outcome) is ProvenDivergent else None


def converges(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> bool | None:
    """True on termination, False on proven divergence, None if unknown."""
    outcome = run(x, family, fuel)
    if type(outcome) is Converged:
        return True
    return False if type(outcome) is ProvenDivergent else None


# --- derived method operations ------------------------------------------


class Applied(NamedTuple):
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
    _check_fuel(fuel)
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
        if type(outcome) is Converged:
            service = outcome.family.entries[FOCUS]
            return Applied(outcome.reply, service.state)
        return UNDEFINED if type(outcome) is ProvenDivergent else UNKNOWN

    return evaluate
