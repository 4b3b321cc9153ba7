"""Spans around the benchmark's own calls into seqhalt's public functions.

The package is never patched: ``Tracer.wrap`` returns a timing wrapper
that the workloads call in place of the public function.  Spans are kept
in flat arrays in memory and written out once, after the round.  Spans
read the wall clock, the cheapest one, so that tracing disturbs the
round as little as it can.  The program runs in a single thread and
each item waits only on its own calls, so waiting time is zero by
construction; only busy time and counts are recorded.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns as clock_ns

PHASES = ("setup", "timed", "check")


class NoTracer:
    """The untraced mode: every wrapper is the function itself."""

    def wrap(self, name, fn, observe=None):
        return fn

    def wrap_item(self, kind, fn):
        return fn

    def phase(self, name):
        return nullcontext()


class Tracer:
    """Records one span per wrapped call, item and phase.

    Each span holds its name, start, end, phase and the id of the item
    or phase span it ran under; all spans share the tracer's run id.
    ``observe`` hooks add result-derived counts (steps, outcomes, bits,
    nodes) to the counter of the current phase.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self.phase_of = array("B")
        self.current = -1
        self.phase_index = 0
        self.counts = [Counter() for _ in PHASES]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.start.append(clock_ns())
        self.end.append(0)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.phase_of.append(self.phase_index)
        self.current = span
        return span

    @contextmanager
    def phase(self, name: str):
        self.phase_index = PHASES.index(name)
        outer = self.current
        span = self._open(self._name_id(f"bench.{name}"))
        try:
            yield
        finally:
            self.end[span] = clock_ns()
            self.current = outer

    def wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        start, end, names, parent, phase_of = (
            self.start, self.end, self.name, self.parent, self.phase_of,
        )
        counts = self.counts

        def traced(*args, **kwargs):
            t0 = clock_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock_ns()
                start.append(t0)
                end.append(t1)
                names.append(name_id)
                parent.append(self.current)
                phase_of.append(self.phase_index)
            if observe is not None:
                observe(counts[self.phase_index], result)
            return result

        return traced

    def wrap_item(self, kind: str, fn):
        name_id = self._name_id(f"bench.item.{kind}")

        def item(*args):
            outer = self.current
            span = self._open(name_id)
            try:
                return fn(*args)
            finally:
                self.end[span] = clock_ns()
                self.current = outer

        return item

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its child spans
        (children never overlap: one thread, strictly nested calls)."""
        covered = [0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[span] - self.start[span]
        return [self.end[s] - self.start[s] - covered[s] for s in range(len(self.start))]

    def aggregate(self) -> dict[str, dict[str, dict]]:
        """Per phase and span name: calls, total and self nanoseconds,
        and the median duration."""
        own = self.self_times()
        durations: dict[tuple[int, int], list[int]] = {}
        selves: Counter = Counter()
        for span, name_id in enumerate(self.name):
            key = (self.phase_of[span], name_id)
            durations.setdefault(key, []).append(self.end[span] - self.start[span])
            selves[key] += own[span]
        out: dict[str, dict[str, dict]] = {phase: {} for phase in PHASES}
        for (phase, name_id), spans in durations.items():
            out[PHASES[phase]][self.names[name_id]] = {
                "calls": len(spans),
                "total_ns": sum(spans),
                "self_ns": selves[(phase, name_id)],
                "p50_ns": statistics.median(spans),
            }
        return out

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines, one per span."""
        own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run_id\tspan\tparent\tphase\tname\tstart_ns\tend_ns\tself_ns\n")
            for span in range(len(self.start)):
                out.write(
                    f"{self.run_id}\t{span}\t{self.parent[span]}\t{PHASES[self.phase_of[span]]}\t"
                    f"{self.names[self.name[span]]}\t{self.start[span]}\t{self.end[span]}\t{own[span]}\n"
                )
