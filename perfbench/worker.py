"""One benchmark process: set up a workload, time its operation until the
time slice is used, check every output, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  With ``--fill`` it
only fills ``gamma-warm``'s store; with ``--setup-only`` it only sets the
workload up and reports the time that took.  The first operation is a
warm-up: checked, but not timed into any figure.  With ``--trace 1``
each untraced operation is followed by a traced one (wrappers installed
for that call only), so the pair gives the per-layer split and the
tracing overhead.
"""

import time

# set-up time starts before any import: imports are part of set-up
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def environment() -> dict:
    import numpy
    import scipy

    from run import PINNED_ENV

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slice", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--store", default=None, help="gamma-warm's store")
    ap.add_argument("--fill", action="store_true",
                    help="only fill --store, then report the time taken")
    ap.add_argument("--setup-only", action="store_true",
                    help="only set the workload up, then report the time taken")
    args = ap.parse_args()

    import layers
    from workloads import WORKLOADS

    store = (Path(args.store),) if args.store else ()
    wl = WORKLOADS[args.workload](args.seed, Path(args.work), *store)
    if args.fill:
        wl.fill()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    if args.trace:
        layers.import_all()
    wl.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = layers.Tracer()
    modes = (False, True) if args.trace else (False,)
    walls, traced_walls, samples, bytes_per_record = [], [], [], []
    attempted = failed = 0
    t_measure = time.perf_counter()
    broken = False
    cycles = 0
    while not broken:
        t_cycle = time.perf_counter()
        # the first cycle is the warm-up: one untraced operation whose
        # outputs are checked but whose time is in no figure
        warm_up = cycles == 0
        for traced in (False,) if warm_up else modes:
            # every operation starts from the same heap: no leftover
            # garbage from the previous one for the collector to walk
            gc.collect()
            installed = None
            if traced:
                tracer.reset()
                installed = layers.install(tracer)
            try:
                out = wl.operation()
            except Exception:
                traceback.print_exc()
                attempted += wl.operations
                failed += wl.operations
                broken = True
            finally:
                if installed is not None:
                    installed.uninstall()
            if broken:
                break
            try:
                out.measure()
                a, f = wl.check(out)
            except Exception:
                traceback.print_exc()
                a, f = wl.operations, wl.operations
                broken = True
            attempted += a
            failed += f
            if traced:
                missing = layers.zero_call_hooks(tracer, args.workload)
                if missing:
                    print("traced run failed: zero calls recorded by "
                          + ", ".join(missing), file=sys.stderr)
                    return 3
                traced_walls.append(out.wall_s)
                samples.append(layers.layer_metrics(tracer))
                if args.spans:
                    tracer.write(args.spans, op=len(samples) - 1)
            elif not warm_up:
                walls.append(out.wall_s)
                bytes_per_record.append(out.bytes_per_record)
            wl.cleanup(out)
        cycles += 1
        # stop before a cycle that would overrun the slice (checks
        # included), after one timed cycle at least
        now = time.perf_counter()
        if cycles >= 2 and now - t_measure + (now - t_cycle) > args.slice:
            break
    measured_s = time.perf_counter() - t_measure
    wl.close()
    layer = {}
    if samples:
        layer = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    print(json.dumps({
        "setup_s": setup_s,
        "measured_s": measured_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layer,
        "bytes_per_record": bytes_per_record,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
