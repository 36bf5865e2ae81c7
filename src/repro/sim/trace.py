"""Execution tracing: record spans of simulated activity per host.

A :class:`Tracer` collects named, categorized spans ("host 3 spent
[t0, t1] in compute", "... in reduce-scatter") and exports them in the
Chrome trace-event format (``chrome://tracing`` / Perfetto), with one
process row per simulated host and one thread row per actor.  The BSP
engine emits spans when given a tracer (``EngineConfig.tracer``), which
makes the gather-communicate-scatter pipeline of Fig. 2 directly
visible on a timeline.

The tracer is pure instrumentation: it never advances simulated time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.gate import atomic_write

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One closed interval of simulated activity."""

    host: int
    actor: str
    category: str
    name: str
    start: float
    end: float
    args: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("tracer", "host", "actor", "category", "name", "start", "args")

    def __init__(self, tracer, host, actor, category, name, start, args):
        self.tracer = tracer
        self.host = host
        self.actor = actor
        self.category = category
        self.name = name
        self.start = start
        self.args = args

    def close(self, end: float, **extra) -> Span:
        args = dict(self.args)
        args.update(extra)
        span = Span(
            self.host, self.actor, self.category, self.name,
            self.start, end, args,
        )
        self.tracer._spans.append(span)
        return span


class Tracer:
    """Collects spans and instant events from simulated components."""

    def __init__(self, env=None, enabled: bool = True):
        self.env = env
        self.enabled = enabled
        self._spans: List[Span] = []
        self._instants: List[Dict] = []

    # ------------------------------------------------------------------
    def begin(
        self, host: int, category: str, name: str,
        actor: str = "main", **args,
    ) -> Optional[_OpenSpan]:
        """Open a span at the current simulated time (needs ``env``)."""
        if not self.enabled:
            return None
        if self.env is None:
            raise ValueError("Tracer.begin requires an Environment")
        return _OpenSpan(self, host, actor, category, name, self.env.now, args)

    def end(self, open_span: Optional[_OpenSpan], **extra) -> Optional[Span]:
        if open_span is None:
            return None
        return open_span.close(self.env.now, **extra)

    def record(
        self, host: int, category: str, name: str,
        start: float, end: float, actor: str = "main", **args,
    ) -> None:
        """Record an already-timed span."""
        if not self.enabled:
            return
        self._spans.append(Span(host, actor, category, name, start, end, args))

    def instant(
        self, host: int, name: str, time: float,
        category: str = "events", **args,
    ) -> None:
        """A zero-duration marker (e.g. 'round 7 barrier', 'drop EGR->3').

        ``category`` groups instants into their own thread row per host in
        the Chrome export (fault injections use ``"fault"``).
        """
        if not self.enabled:
            return
        self._instants.append(
            {"host": host, "name": name, "time": time,
             "category": category, "args": args}
        )

    @property
    def instants(self) -> List[Dict]:
        return list(self._instants)

    def instants_for(self, category: Optional[str] = None) -> List[Dict]:
        if category is None:
            return list(self._instants)
        return [i for i in self._instants if i["category"] == category]

    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def spans_for(self, host: Optional[int] = None,
                  category: Optional[str] = None) -> List[Span]:
        out = self._spans
        if host is not None:
            out = [s for s in out if s.host == host]
        if category is not None:
            out = [s for s in out if s.category == category]
        return list(out)

    def total_time(self, host: int, category: str) -> float:
        return sum(s.duration for s in self.spans_for(host, category))

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (times in microseconds)."""
        events = []
        for s in self._spans:
            events.append({
                "ph": "X",
                "pid": s.host,
                "tid": s.actor,
                "cat": s.category,
                "name": s.name,
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "args": s.args,
            })
        for i in self._instants:
            events.append({
                "ph": "i",
                "pid": i["host"],
                "tid": i.get("category", "events"),
                "cat": i.get("category", "events"),
                "name": i["name"],
                "ts": i["time"] * 1e6,
                "s": "p",
                "args": i["args"],
            })
        # Name and order the process rows after the hosts.  Metadata is
        # emitted in sorted (pid, name) order so the export is stable
        # for golden-file comparisons.
        hosts = sorted({s.host for s in self._spans}
                       | {i["host"] for i in self._instants})
        for h in hosts:
            events.append({
                "ph": "M",
                "pid": h,
                "name": "process_name",
                "args": {"name": f"host {h}"},
            })
            events.append({
                "ph": "M",
                "pid": h,
                "name": "process_sort_index",
                "args": {"sort_index": h},
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def save(self, path: str) -> str:
        """Write the Chrome trace atomically (temp file + replace)."""
        return atomic_write(path, json.dumps(self.to_chrome_trace()))

    def __len__(self) -> int:
        return len(self._spans)
