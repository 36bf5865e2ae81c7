#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, by workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-scenario --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload untraced for about ``--seconds``
seconds and reports the end-to-end metrics: medians over repetitions
of host times scaled to a reference host speed, which is probed around
every repetition.  One extra repetition with ``ProfileContext``
attached must reproduce the untraced answers bit for bit.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones.  Every metric is printed with its unit; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Spans are written to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3


def load_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: program source not found under {src}")
    sys.path.insert(0, src)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compare(ref, out) -> int:
    """How many of ``out``'s answers differ from ``ref``'s, bit for bit
    (at least one when any deterministic scalar differs)."""
    import numpy as np

    if len(ref.answers) != len(out.answers):
        return max(1, out.attempted)
    differ = sum(
        ka != kb or a.dtype != b.dtype or not np.array_equal(a, b)
        for (ka, a), (kb, b) in zip(ref.answers, out.answers)
    )
    if ref.signature != out.signature:
        differ = max(differ, 1)
    return differ


def check(wl, outs) -> tuple:
    """Verify the first repetition, hold every other one to it bit for
    bit; returns ``(attempted, failed, problems)``."""
    problems = wl.verify(outs[0])
    wrong = len(problems)
    attempted = failed = 0
    for i, out in enumerate(outs):
        attempted += out.attempted
        differ = compare(outs[0], out) if i else 0
        if differ:
            problems.append(f"repetition {i} differs from repetition 0 "
                            f"in {differ} answer(s)")
        failed += out.bad + (differ or wrong)
    return attempted, failed, problems


def measure(wl, seconds: float):
    """Untraced repetitions -> end-to-end metrics.

    Complete repetitions, workload spec to assembled answers, run until
    ``seconds`` are spent (at least ``MIN_REPS``).  The host's speed is
    probed before every repetition, at checkpoints inside it, and once
    after the last; each stretch of host time between two probes is
    scaled to the reference host (:class:`tracing.Spans`).  Every
    host-time metric is a median over the repetitions; the median
    shrugs off the first repetition's cold caches.  One extra repetition
    then runs with ``ProfileContext`` attached, on the last inputs; it
    must reproduce the untraced answers bit for bit, and its work
    counters go to the trace file.
    """
    from repro.obs import ProfileContext
    from tracing import Spans, clock, speed_intervals

    def run(label, probe=False, **kwargs):
        gc.collect()  # untimed: no repetition pays for another's garbage
        spans = Spans(label, probe=probe)
        spans.checkpoint()
        return spans, wl.rep(spans, **kwargs)

    start, samples = clock(), []
    while len(samples) < MIN_REPS or (
            clock() - start
            + statistics.median(sp.total("rep") for sp, _ in samples)
            <= seconds):
        samples.append(run(f"rep{len(samples)}", probe=True))
        if len(samples) == MIN_REPS:
            # Later repetitions only add answers kept for checking.
            rss = peak_rss_mb()
    last = Spans("probe", probe=True)
    last.checkpoint()
    spans = [sp for sp, _ in samples] + [last]
    intervals = speed_intervals(spans)
    outs = [out for _, out in samples]
    profile = ProfileContext()
    sp, out = run("profiled", profile=profile, reuse=True)
    spans.append(sp)
    outs.append(out)

    def median(name, scaled=True):
        return statistics.median(sp.scaled_total(name, intervals, scaled)
                                 for sp, _ in samples)

    answered = outs[0].attempted - outs[0].bad
    metrics = {
        "wall_s": (median("rep"), "s"),
        "setup_s": (median("setup"), "s"),
        "queries_per_s": (answered / median("answer"), "queries/s"),
        "peak_rss_mb": (rss, "MiB"),
        "sim_time_s": (sum(outs[0].sim_by_layer.values()), "s"),
    }
    measured = {
        "measured.wall_s": (median("rep", scaled=False), "s"),
        "measured.setup_s": (median("setup", scaled=False), "s"),
        "probes": (len(intervals) + 1, "count"),
        "median_scale": (statistics.median(k for _s, _e, k in intervals),
                         "ratio"),
    }
    return metrics, outs, spans, profile, [], measured


def measure_traced(wl, seconds: float):
    """Untraced/traced repetition pairs -> per-layer metrics."""
    from repro.obs import ProfileContext
    from tracing import Spans, clock, layer_metrics

    def pair(i):
        gc.collect()
        u_spans = Spans(f"untraced{i}")
        u_out = wl.rep(u_spans)
        profile = ProfileContext()
        gc.collect()
        t_spans = Spans(f"traced{i}")
        t_out = wl.rep(t_spans, profile=profile, traced=True)
        return u_spans, u_out, t_spans, t_out, profile

    start, pairs = clock(), []
    while not pairs or (clock() - start) * (len(pairs) + 1) / len(pairs) <= seconds:
        pairs.append(pair(len(pairs)))
    per_rep = [layer_metrics(t, t_out, prof) for _, _, t, t_out, prof in pairs]
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_rep), unit)
        for name, (_v, unit) in per_rep[0].items()
    }
    events = metrics["sim.events_fired"][0]
    metrics["sim.events_per_s"] = (
        events / statistics.median(u.total(wl.sim_span) for u, *_ in pairs),
        "events/s")
    untraced = statistics.median(u.total("rep") for u, *_ in pairs)
    traced = statistics.median(t.total("rep") for _, _, t, _, _ in pairs)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    prints = {prof.fingerprint() for *_, prof in pairs}
    problems = [] if len(prints) == 1 else [
        f"work-counter fingerprints differ across traced repetitions: "
        f"{sorted(prints)}"
    ]
    outs = [o for p in pairs for o in (p[1], p[3])]
    spans = [s for p in pairs for s in (p[0], p[2])]
    return metrics, outs, spans, pairs[-1][4], problems, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    load_program()
    from tracing import clock, write_trace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"pick from {sorted(WORKLOADS)}")
    t0 = clock()
    try:
        wl = WORKLOADS[args.workload](args.seed)
        run = measure_traced if args.trace else measure
        metrics, outs, spans, profile, problems, measured = run(
            wl, args.seconds)
        attempted, failed, found = check(wl, outs)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    failed += len(problems)  # traced repetitions whose work counters differ
    problems += found
    path = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    write_trace(path, vars(args), spans, t0, profile)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outs)} answered repetition(s), spans in "
          f"{os.path.relpath(path, ROOT)}")
    for problem in problems:
        print(f"FAIL {problem}")
    ref = outs[0]
    info = dict(measured)
    info.update({f"sim_time_s.{layer}": (v, "s")
                 for layer, v in ref.sim_by_layer.items()})
    if ref.serve:
        from repro.obs.latency import percentile_nearest_rank as pct

        lat = ref.serve["latencies"]
        info["sim_p50_us"] = (pct(lat, 50) * 1e6, f"us(n={len(lat)})")
        info["sim_p90_us"] = (pct(lat, 90) * 1e6, f"us(n={len(lat)})")
    info["failed_frac"] = (failed / max(attempted, 1), "ratio")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
