"""One pass of a workload in a fresh interpreter; prints one JSON line.

Run by ``run.py`` with the library's source directory on ``PYTHONPATH``, so
that every process-level cache in the library starts cold, as it does for a
user's census script.  A pass is set-up (library import, fields and their
tables, item list) followed by every item in order.  Times are normalised
by the speed probe in ``calibrate.py``; the raw times ride along.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import workloads as wl
    from calibrate import SpeedProbe

    speed = SpeedProbe()
    clock = speed.clock   # equals perf_counter until the probe starts
    t0 = clock()
    lib = wl.import_library()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(clock)
        wl.install_tracing(tracer, lib)
    ctx = wl.setup(args.workload, args.seed, lib)
    raw_setup = clock() - t0
    # Set-up is scaled by probes run just after it: probes between imports
    # run with cold caches and misjudged the speed.
    out = {"setup_s": raw_setup * speed.scale_now(), "raw_setup_s": raw_setup,
           "library": lib["ffield"].__file__}
    if args.setup_only:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return

    expected = wl.item_errors(lib)
    recs, spans, failures, check_failures = [], [], [], []
    if tracer is not None:
        tracer.reset_counts()
    speed.start()
    first = clock()
    for idx, item in enumerate(ctx.items):
        if tracer is not None:
            tracer.item = idx
        start = clock()
        try:
            rec = wl.run_item(ctx, item)
        except expected as exc:
            failures.append({"item": wl.describe(ctx, item),
                             "error": f"{type(exc).__name__}: {exc}"})
            rec = None
        spans.append((start, clock()))
        recs.append(rec)
        if rec is not None:
            for msg in wl.check_item(ctx, item, rec):
                check_failures.append({"item": wl.describe(ctx, item), "check": msg})
    last = clock()
    speed.stop()
    if tracer is not None:
        tracer.uninstall()

    latencies = [(b - a) * speed.scale(a, b) for a, b in spans]
    between = (last - first) - sum(b - a for a, b in spans)
    pinned, props = wl.summarize(ctx, recs)
    curves_done = [r for r in recs if r is not None] if ctx.name != "sp_baselines" else []
    out.update({
        "wall_s": sum(latencies) + between * speed.scale(first, last),
        "raw_wall_s": last - first,
        "latencies_ms": [t * 1e3 for t in latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ctx.items), "failures": failures, "check_failures": check_failures,
        "pinned": pinned, "props": props, "route_checks": len(curves_done),
        "route_disagree": sum(1 for r in curves_done if r["p_rank"] != r["slope0"]),
        "versions": _versions(),
    })
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counts"] = {k: v[0] for k, v in tracer.counts.items()}
        out["distinct_keys"] = {k: len(v) for k, v in tracer.keys.items()}
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(out))


def _versions() -> dict:
    import numpy
    import sympy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "sympy": sympy.__version__}


if __name__ == "__main__":
    main()
