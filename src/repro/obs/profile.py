"""Host-side performance observability: regions, counters, profiles.

Two instruments, one context, zero cost when off:

* :class:`RegionProfiler` — nestable ``region("name")`` annotations over
  the *host-side* (wall-clock) hot paths: event dispatch in
  ``sim.engine``, matching walks in ``mpi.matching``, packet handling in
  ``netapi.nic``, progress in ``lci.server``, serialization and
  scatter/apply in ``engine.bsp``.  Produces a hierarchical
  self/cumulative report with call counts, exportable as JSON, a top-N
  table, or collapsed-stack (flamegraph) lines.
* :class:`CounterRegistry` — deterministic *work* counters (events
  scheduled/fired, heap ops, packets/bytes, matching probes, pool
  acquires).  Pure functions of the simulated schedule, so repeat runs
  of the same scenario produce identical counts and an identical
  :meth:`~CounterRegistry.fingerprint` — the drift-detection anchor in
  ``BENCH_core.json``.

Both ride on :class:`ProfileContext`, the ``profiler`` field of the
run's :class:`~repro.sim.instruments.Instruments` record: every
component reads it once at construction and wires its timed paths only
when it is set.  The contract mirrors ``repro.obs``:

* **Off by default** — no profiler in the record means no hook is wired.
* **Bit-identical when on** — hooks never advance simulated time, touch
  a :class:`~repro.sim.monitor.StatRegistry`, or change iteration
  order; ``RunMetrics`` with the profiler enabled equals the plain run
  (CI-asserted).
* **Cheap when on** — wall-clock reads bracket coarse synchronous
  segments only (never per-event), the per-packet and per-walk sites
  read the clock on a sample of calls
  (:meth:`ProfileContext.sampled_leaf`), and per-packet *work counts*
  are never incremented on the hot path at all: components that already
  maintain deterministic tallies (NIC stats, pool stats, matching-queue
  probe counts) register a :meth:`ProfileContext.add_source` callback
  instead, and the registry folds their totals in lazily at snapshot
  time (:meth:`ProfileContext.flush`).  The bench harness measures the
  residual overhead and CI bounds it below 5%.

Wall-clock time is intentionally confined to this module:
:func:`wall_now` is the single sanctioned clock, so the determinism
lint (rule D101) flags any *other* wall-clock read in the tree.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional

from repro.gate import atomic_write

__all__ = [
    "wall_now",
    "cpu_now",
    "RegionProfiler",
    "CounterRegistry",
    "ProfileContext",
    "PROFILE_DOC_KIND",
]

PROFILE_DOC_KIND = "repro-profile"
PROFILE_DOC_VERSION = 1


def wall_now() -> float:
    """The one sanctioned wall-clock read in the codebase.

    Everything the profiler measures is *host* time — how long the
    pure-Python simulator itself takes — which is exactly what the
    determinism lint exists to keep out of the simulation modules.
    Routing every read through this helper keeps the suppression
    surface to a single line and makes profiling code grep-able.
    """
    return time.perf_counter()  # lint-ok: D101 the profiler measures host wall-clock by design


#: The raw C clock, bound into the hot-path closures: a call to the
#: :func:`wall_now` Python wrapper costs more than the clock read
#: itself, so the closures skip the frame.  Same clock, same lint
#: rationale as :func:`wall_now`.
_perf_counter = time.perf_counter  # lint-ok: D101 hot-path alias of wall_now

#: Sampling stride of :meth:`ProfileContext.sampled_leaf`.  Sites that
#: fire per packet, per blob or per queue walk only read the clock on
#: every STRIDE'th call and report ``cum * STRIDE`` from their leaf
#: source; call counts stay exact.  The untimed calls pay one counter
#: increment and one AND — the stride is a power of two so the "is
#: this call timed" check is a single mask test.  Per-phase cells
#: (compute/gather/scatter) stay fully timed: their hook cost
#: amortizes over whole phases and their low call counts would make a
#: sampled estimate coarse.
LEAF_SAMPLE_STRIDE = 8
LEAF_SAMPLE_MASK = LEAF_SAMPLE_STRIDE - 1

#: Process CPU time, for *measuring the profiler itself*.  A
#: single-threaded simulator's profiling overhead is exactly the extra
#: CPU its hooks burn; CPU time is immune to hypervisor steal and far
#: less sensitive to frequency scaling than wall-clock, both of which
#: dwarf a few percent of hook cost on small shared machines.  Kept
#: here with the sanctioned clocks so host-time reads stay confined to
#: this module (process_time is not a D101 clock, but the convention
#: holds).
cpu_now = time.process_time


class _Node:
    """One region in the profile tree."""

    __slots__ = ("name", "children", "calls", "cum")

    def __init__(self, name: str):
        self.name = name
        self.children: Dict[str, "_Node"] = {}
        self.calls = 0
        self.cum = 0.0


class RegionProfiler:
    """Hierarchical wall-clock region profiler.

    Regions nest: entering ``b`` while inside ``a`` accounts ``b`` as a
    child of ``a``, and ``a``'s *self* time is its cumulative time minus
    its children's.  The hot-path API is :meth:`enter` / :meth:`exit`
    (no allocation); :meth:`region` adds ``with``-statement sugar for
    coarse blocks.

    ``clock`` is injectable for deterministic tests; it defaults to
    :func:`wall_now`.
    """

    def __init__(self, clock=wall_now):
        if clock is wall_now:
            # The default clock drops the Python wrapper frame; tests
            # that inject a custom clock keep theirs verbatim.
            clock = _perf_counter
        self._clock = clock
        #: The raw clock, exposed so timed call sites can read it with one
        #: attribute load + one C call.
        self.clock = clock
        self.root = _Node("")
        # Stack of (node, t_enter); the virtual root never pops.
        stack: List[tuple] = [(self.root, 0.0)]
        self._stack = stack

        # enter/exit are built as closures with every name bound
        # local (no ``self`` attribute traffic, plain-function call
        # overhead): they run hundreds of times per simulated round, and
        # their cost is the profiler's measured overhead.
        def enter(name, _stack=stack, _clock=clock, _node_cls=_Node):
            children = _stack[-1][0].children
            try:
                node = children[name]
            except KeyError:
                node = children[name] = _node_cls(name)
            _stack.append((node, _clock()))

        def exit(_stack=stack, _clock=clock):
            node, t0 = _stack.pop()
            node.cum += _clock() - t0
            node.calls += 1

        #: Open a region (hot path; see closure above).
        self.enter = enter
        #: Close the innermost region (hot path; see closure above).
        self.exit = exit
        #: Deferred leaf-region sources (see :meth:`add_leaf_source`).
        self._leaf_sources: List = []

    def region(self, name: str) -> "_Region":
        """``with profiler.region("comm.serialization.pack"): ...``"""
        return _Region(self, name)

    def add_leaf_source(self, fn) -> None:
        """Register a deferred leaf-region source.

        ``fn()`` returns an iterable of ``(parent_path, name,
        cum_seconds, calls)`` *running totals*.  The highest-frequency
        leaf regions (per-packet NIC handling, matching walks, progress
        harvests) accumulate into plain floats at the call site — two
        clock reads and a couple of list ops, no stack or tree traffic —
        and this fold reconstructs their tree nodes at snapshot time.
        The exact analogue of :meth:`ProfileContext.add_source` for
        wall-clock regions: totals are summed across sources per
        ``(parent_path, name)`` and *written* (not added) to the node,
        so repeated folds are idempotent.  ``parent_path`` is the
        ``;``-joined region path the leaf belongs under (these hot paths
        only ever run inside the event loop, so it is static per site).
        """
        self._leaf_sources.append(fn)

    def _fold_leaf_sources(self) -> None:
        totals: Dict[tuple, list] = {}
        for fn in self._leaf_sources:
            for parent, name, cum, calls in fn():
                key = (parent, name)
                t = totals.get(key)
                if t is None:
                    totals[key] = [cum, calls]
                else:
                    t[0] += cum
                    t[1] += calls
        for (parent, name), (cum, calls) in totals.items():
            if not calls:
                # A leaf that never fired would otherwise fabricate its
                # parent chain in the report.
                continue
            node = self.root
            if parent:
                for part in parent.split(";"):
                    child = node.children.get(part)
                    if child is None:
                        child = node.children[part] = _Node(part)
                    node = child
            leaf = node.children.get(name)
            if leaf is None:
                leaf = node.children[name] = _Node(name)
            leaf.cum = cum
            leaf.calls = calls

    @property
    def depth(self) -> int:
        """Current nesting depth (0 at the root; useful in tests)."""
        return len(self._stack) - 1

    # -- reporting ------------------------------------------------------
    def rows(self) -> List[dict]:
        """Flattened tree, depth-first, children in name order.

        Each row carries the full ``;``-joined path, call count,
        cumulative seconds, and self seconds (cumulative minus
        children's cumulative, floored at zero against clock jitter).
        """
        self._fold_leaf_sources()
        out: List[dict] = []

        def walk(node: _Node, prefix: str, depth: int) -> None:
            for name in sorted(node.children):
                child = node.children[name]
                path = f"{prefix};{name}" if prefix else name
                child_cum = 0.0
                for sub in child.children.values():
                    child_cum += sub.cum
                out.append({
                    "path": path,
                    "name": name,
                    "depth": depth,
                    "calls": child.calls,
                    "cum_s": child.cum,
                    "self_s": max(child.cum - child_cum, 0.0),
                })
                walk(child, path, depth + 1)

        walk(self.root, "", 0)
        return out

    def to_collapsed(self) -> str:
        """Collapsed-stack (flamegraph) export.

        One ``a;b;c <count>`` line per region path, where the count is
        the region's *self* time in integer microseconds — load it with
        flamegraph.pl / speedscope / inferno as-is.  Paths are sorted so
        the export is stable given stable timings.
        """
        lines = []
        for row in self.rows():
            lines.append(f"{row['path']} {int(round(row['self_s'] * 1e6))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def format_top(self, n: int = 10) -> str:
        """Top-``n`` regions by self time, as an aligned table."""
        rows = sorted(self.rows(), key=lambda r: -r["self_s"])[:n]
        total = 0.0
        for r in self.rows():
            total += r["self_s"]
        header = f"{'region':<42} {'calls':>9} {'self':>10} {'cum':>10} {'self%':>6}"
        lines = [header, "-" * len(header)]
        for r in rows:
            pct = 100.0 * r["self_s"] / total if total > 0 else 0.0
            lines.append(
                f"{r['name']:<42} {r['calls']:>9} "
                f"{r['self_s'] * 1e3:>8.2f}ms {r['cum_s'] * 1e3:>8.2f}ms "
                f"{pct:>5.1f}%"
            )
        return "\n".join(lines)


class _Region:
    __slots__ = ("_prof", "_name")

    def __init__(self, prof: RegionProfiler, name: str):
        self._prof = prof
        self._name = name

    def __enter__(self) -> None:
        self._prof.enter(self._name)

    def __exit__(self, *exc) -> None:
        self._prof.exit()


class CounterRegistry:
    """Deterministic host-side work counters.

    Unlike :class:`~repro.sim.monitor.StatRegistry` (per-component,
    folded into ``RunMetrics``), this is a single flat cross-layer
    registry whose values depend only on the simulated schedule — never
    on wall-clock — so two runs of the same scenario agree exactly.
    :meth:`fingerprint` condenses the whole registry into a short hash:
    the cheapest possible "did the work change?" probe for the bench
    trajectory and for perf refactors that must not alter behaviour.
    """

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        c = self._counts
        c[name] = c.get(name, 0) + n

    def set(self, name: str, value: int) -> None:
        """Overwrite a counter with an absolute value.

        The landing pad for deferred sources
        (:meth:`ProfileContext.flush`): a source reports its running
        total, so repeated flushes write the same value (idempotent).
        """
        self._counts[name] = value

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counters in sorted-name order (canonical form)."""
        return {k: self._counts[k] for k in sorted(self._counts)}

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON encoding, truncated to 16 hex.

        Stable across insertion order and Python versions; changes iff
        any counter's value changes.
        """
        blob = json.dumps(self.as_dict(), sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]

    def merge(self, other: "CounterRegistry") -> None:
        for name, value in other.as_dict().items():
            self.inc(name, value)

    def __len__(self) -> int:
        return len(self._counts)


class ProfileContext:
    """Bundles the region profiler and the counter registry.

    Components find it as the ``profiler`` field of the run's
    :class:`~repro.sim.instruments.Instruments` record, read once at
    construction.  :meth:`install` binds the engine's environment and
    fabric and registers the fabric's packet counters.

    One context may be installed across several engines (the serve
    layer runs one engine per batch): regions and counters accumulate,
    which is exactly what a service-level profile wants.

    Two ways for counts to land in the registry:

    * **Direct** — coarse per-phase code calls ``counters.inc`` (or the
      bound :attr:`count` alias).  Used where a handful of increments
      per round cannot matter.
    * **Deferred** — per-packet/per-op paths never touch the registry;
      the owning component registers an :meth:`add_source` callback
      that reports its running totals from state it maintains anyway
      (NIC/pool ``StatRegistry`` counters, matching-queue probe
      tallies).  :meth:`flush` folds every source in; all snapshot
      paths (:meth:`report_dict`, :meth:`counters_dict`,
      :meth:`fingerprint`, :meth:`format_counters`) flush first.
      Reading ``ctx.counters`` directly between flushes sees only the
      direct increments.
    """

    def __init__(self, clock=wall_now):
        self.regions = RegionProfiler(clock=clock)
        self.counters = CounterRegistry()
        self.env = None
        self.fabric = None
        #: Deferred counter sources: callables returning an iterable of
        #: ``(name, running_total)`` pairs; totals are summed across
        #: sources at flush time.
        self._sources: List = []
        # Hot-path aliases bound past the delegation layer: call sites
        # pay one method call, not two.
        self.enter = self.regions.enter
        self.exit = self.regions.exit
        self.clock = self.regions.clock
        self.count = self.counters.inc
        self.add_leaf_source = self.regions.add_leaf_source

    def install(self, env, fabric) -> "ProfileContext":
        self.env = env
        self.fabric = fabric
        # The NIC layer keeps deterministic per-NIC packet/byte stats
        # regardless of profiling; snapshot them instead of paying
        # per-packet increments.
        self.add_source(lambda: _fabric_counts(fabric))
        return self

    def add_source(self, fn) -> None:
        """Register a deferred counter source (see the class docstring)."""
        self._sources.append(fn)

    def sampled_leaf(self, name: str, fn, parent: str = "sim.engine.run"):
        """Wrap ``fn`` so its calls are timed as leaf region ``name``.

        The wrapper counts every call in a ``[cum, calls]`` cell and
        reads the clock only on every :data:`LEAF_SAMPLE_STRIDE`'th one;
        a deferred leaf source reports ``cum * STRIDE`` under
        ``parent`` (the ``;``-joined region path the call sites run
        inside, static because they only run synchronously inside the
        event loop).  No stack or tree traffic per call, and region data
        is wall-side only, so no fingerprint can move.
        """
        clock = self.clock
        cell = [0.0, 0]

        def timed(*args, **kwargs):
            n = cell[1] + 1
            cell[1] = n
            if n & LEAF_SAMPLE_MASK:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += clock() - t0

        self.add_leaf_source(lambda: (
            (parent, name, cell[0] * LEAF_SAMPLE_STRIDE, cell[1]),
        ))
        return timed

    def flush(self) -> "ProfileContext":
        """Fold every deferred source's totals into the registry.

        Idempotent: sources report running totals, summed across
        sources and written with :meth:`CounterRegistry.set`.  Zero
        totals are skipped so counters only exist once the event they
        count has happened (matching the direct-increment behaviour).
        """
        totals: Dict[str, int] = {}
        for fn in self._sources:
            for name, value in fn():
                totals[name] = totals.get(name, 0) + value
        for name, value in totals.items():
            if value:
                self.counters.set(name, value)
        return self

    # -- snapshot accessors (always flushed) ---------------------------
    def counters_dict(self) -> Dict[str, int]:
        self.flush()
        return self.counters.as_dict()

    def fingerprint(self) -> str:
        self.flush()
        return self.counters.fingerprint()

    # -- reporting ------------------------------------------------------
    def report_dict(self, meta: Optional[dict] = None) -> dict:
        """The JSON profile document (validated by
        :func:`repro.obs.validate.validate_profile_doc`)."""
        self.flush()
        return {
            "kind": PROFILE_DOC_KIND,
            "version": PROFILE_DOC_VERSION,
            "meta": dict(meta or {}),
            "regions": self.regions.rows(),
            "counters": self.counters.as_dict(),
            "fingerprint": self.counters.fingerprint(),
        }

    def format_top(self, n: int = 10) -> str:
        return self.regions.format_top(n)

    def to_collapsed(self) -> str:
        return self.regions.to_collapsed()

    def format_counters(self) -> str:
        """Counters grouped by layer prefix, as an aligned table."""
        counts = self.counters_dict()
        if not counts:
            return "(no counters)"
        width = max(len(k) for k in counts)
        lines = [f"{'counter':<{width}}  {'value':>14}"]
        lines.append("-" * (width + 16))
        prev_group = None
        for name in counts:
            group = name.split(".", 1)[0]
            if prev_group is not None and group != prev_group:
                lines.append("")
            prev_group = group
            lines.append(f"{name:<{width}}  {counts[name]:>14}")
        lines.append("")
        lines.append(f"{'fingerprint':<{width}}  {self.counters.fingerprint():>14}")
        return "\n".join(lines)

    def save_json(self, path: str, meta: Optional[dict] = None) -> None:
        atomic_write(
            path, json.dumps(self.report_dict(meta), indent=2) + "\n"
        )

    def save_collapsed(self, path: str) -> None:
        atomic_write(path, self.to_collapsed())


def _fabric_counts(fabric):
    """Deferred source over the fabric's per-NIC stat registries.

    ``pkts_sent`` counts successful injections (the dispatcher's old
    per-packet increments counted exactly the same events), so the
    registry values are bit-identical to what hot-path counting would
    produce — without any hot-path cost.
    """
    return (
        ("netapi.pkts_injected", fabric.total("pkts_sent")),
        ("netapi.bytes_injected", fabric.total("bytes_sent")),
        ("netapi.pkts_delivered", fabric.total("pkts_received")),
        ("netapi.bytes_delivered", fabric.total("bytes_received")),
        ("netapi.tx_full", fabric.total("tx_queue_full")),
    )
