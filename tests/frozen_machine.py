"""A frozen copy of the original step loop, the reference for the
differential tests of ``machine.run`` and ``machine.run_total``.

It keys a configuration on the node and a canonical tuple of the whole
family, and steps each service through the original ``service_step``.
Do not speed it up: its value is that it stays as it was written.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from seqhalt.machine import Converged, DivergenceCause, FuelExhausted, ProvenDivergent
from seqhalt.program import BasicInstruction, InputError
from seqhalt.services import EMPTY_SERVICE, EmptyService, Reply, Service, ServiceFamily, UnitService, format_family
from seqhalt.threads import PostCond, RegularThread, StopFalse, StopTrue, Tau


def family_key(entries: Mapping[str, Service]):
    """Hashable canonical form of a family's state, for cycle detection."""
    return tuple(
        (f, ("empty",) if isinstance(s, EmptyService) else (s.unit.name, s.state))
        for f, s in sorted(entries.items())
    )


def service_step(service: Service, method: str) -> tuple[Reply, Service]:
    if isinstance(service, EmptyService):
        return Reply.DIVERGENT, EMPTY_SERVICE
    op = service.unit.operations.get(method)
    if op is None:
        return Reply.DIVERGENT, EMPTY_SERVICE
    reply, state = op.step(service.state)
    if op.constant_reply is not None and reply != op.constant_reply:
        raise AssertionError(
            f"declared constant reply violated by {service.unit.name}.{method}"
        )
    return Reply.from_bool(reply), UnitService(service.unit, state)


def step_loop(
    thread: RegularThread,
    family: ServiceFamily,
    fuel: float,
    trace: Callable[[str], None] | None,
    state_key: Callable[[dict[str, Service]], Hashable],
):
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


def run(thread: RegularThread, family: ServiceFamily, fuel: int, trace=None):
    if fuel < 1:
        raise InputError("fuel must be at least 1")
    return step_loop(thread, family, fuel, trace, family_key)


def run_total(thread: RegularThread, family: ServiceFamily):
    for node in thread.nodes.values():
        if isinstance(node, PostCond) and isinstance(node.action, BasicInstruction):
            service = family.entries.get(node.action.focus)
            if isinstance(service, UnitService):
                op = service.unit.operations.get(node.action.method)
                if op is not None and op.constant_reply is None:
                    raise InputError(
                        f"{node.action} has no declared constant reply; use run()"
                    )
    return step_loop(thread, family, float("inf"), None, lambda entries: None)
