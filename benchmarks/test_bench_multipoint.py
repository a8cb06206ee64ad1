"""Cross-grid-point stacking benchmark: the wins this PR exists for.

Two pinned speedups, both measured against the *previous* execution
strategy on the same machine in the same process:

* **multi-point**: a 96-point grid on one shared torus, 2 trials per
  point, evaluated per point (one ``run_trials_batched`` kernel call per
  grid point — the pre-PR sweep behaviour) vs stacked (one
  ``run_points_batched`` call evaluating all 192 trials as one mask
  tensor).  Required: >= 3x.
* **threshold**: ``estimate_critical_probability`` with the classical
  one-probe-per-round bisection (``ladder=1`` — the pre-PR schedule,
  including its per-probe RNG spawn) vs the stacked probe ladder
  (``ladder=3`` — two bisection steps of bracket shrink per kernel
  call), summed over four seeds to average out per-seed probe counts.
  Required: >= 2x.

Both regimes are chosen where per-call overhead dominates row compute —
small graphs, many kernel invocations — because that is exactly the
regime stacking exists to fix; at large n the kernel itself dominates
and both paths converge.  The stacked multi-point records must be
bit-identical to the per-point records, so the speedup is a pure
execution change.

Both arms of a comparison are timed alternately within each repeat (the
order flips every repeat) and compared by their medians, so a burst of
machine noise lands on both arms instead of on one arm's best-of-N.
Timings and the speedup ratios are written to
``benchmarks/results/BENCH_multipoint.json`` (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import statistics
import time

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.graphs.generators import mesh
from repro.percolation.threshold import estimate_critical_probability

MEASURE_ONLY = AnalysisSpec(mode="node", pruner=None, measure_expansion=False)
TORUS = GraphSpec("torus", {"sides": 8, "d": 2})

N_POINTS = 96
TRIALS_PER_POINT = 2
REPEATS = 15

THRESHOLD_GRAPH = mesh([6, 6])
THRESHOLD_TRIALS = 32
THRESHOLD_TOL = 0.0005
THRESHOLD_LADDER = 3
THRESHOLD_SEEDS = (41, 42, 43, 44)
THRESHOLD_REPEATS = 21


def _groups():
    probs = [0.05 + 0.9 * i / (N_POINTS - 1) for i in range(N_POINTS)]
    return [
        [
            ScenarioSpec(
                graph=TORUS,
                fault=FaultSpec("random_node", {"p": round(p, 6)}),
                analysis=MEASURE_ONLY,
                seed=1000 * i + t,
            )
            for t in range(TRIALS_PER_POINT)
        ]
        for i, p in enumerate(probs)
    ]


def _payload(r):
    return {k: v for k, v in r.to_dict().items() if k != "timings"}


def _interleaved(slow, fast, repeats):
    """Median wall-clock seconds of ``slow`` and ``fast``, timed
    alternately (order flipped every repeat), and each arm's last value."""
    arms = (slow, fast)
    times = ([], [])
    values = [None, None]
    for i in range(repeats):
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            values[k] = arms[k]()
            times[k].append(time.perf_counter() - t0)
    return statistics.median(times[0]), statistics.median(times[1]), values


def test_bench_multipoint_stacking(results_dir, capsys):
    groups = _groups()

    def per_point():
        sess = Session()  # fresh: no baseline/graph cache carry-over
        return [sess.run_trials_batched(g) for g in groups]

    def stacked():
        return Session().run_points_batched(groups)

    # warm once (imports, generator cache) before timing either side
    per_point(), stacked()
    solo_s, stack_s, (solo, stack) = _interleaved(per_point, stacked, REPEATS)

    assert [[_payload(r) for r in rs] for rs in stack] == [
        [_payload(r) for r in rs] for rs in solo
    ], "stacked records must be bit-identical to per-point records"

    speedup = solo_s / stack_s

    def threshold_workload(ladder):
        return [
            estimate_critical_probability(
                THRESHOLD_GRAPH,
                mode="site",
                n_trials=THRESHOLD_TRIALS,
                tol=THRESHOLD_TOL,
                seed=seed,
                ladder=ladder,
            )
            for seed in THRESHOLD_SEEDS
        ]

    threshold_workload(1), threshold_workload(THRESHOLD_LADDER)  # warm
    bisect_s, ladder_s, (bisect_ests, ladder_ests) = _interleaved(
        lambda: threshold_workload(1),
        lambda: threshold_workload(THRESHOLD_LADDER),
        THRESHOLD_REPEATS,
    )
    t_speedup = bisect_s / ladder_s
    for est in ladder_ests:
        assert est.width <= THRESHOLD_TOL or est.n_probes >= 30
    for a, b in zip(bisect_ests, ladder_ests):
        # independent Monte-Carlo schedules: brackets must land close
        assert abs(a.midpoint - b.midpoint) < 0.1

    record = {
        "multipoint": {
            "points": N_POINTS,
            "trials_per_point": TRIALS_PER_POINT,
            "per_point_s": round(solo_s, 6),
            "stacked_s": round(stack_s, 6),
            "speedup": round(speedup, 3),
            "required": 3.0,
        },
        "threshold": {
            "graph": "mesh 6x6",
            "n_trials": THRESHOLD_TRIALS,
            "tol": THRESHOLD_TOL,
            "ladder": THRESHOLD_LADDER,
            "seeds": list(THRESHOLD_SEEDS),
            "bisection_s": round(bisect_s, 6),
            "bisection_probes": sum(e.n_probes for e in bisect_ests),
            "ladder_s": round(ladder_s, 6),
            "ladder_probes": sum(e.n_probes for e in ladder_ests),
            "speedup": round(t_speedup, 3),
            "required": 2.0,
        },
    }
    (results_dir / "BENCH_multipoint.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    with capsys.disabled():
        print(f"\nmulti-point stacking: {solo_s*1e3:.1f} ms per-point -> "
              f"{stack_s*1e3:.1f} ms stacked ({speedup:.1f}x, need >= 3x)")
        print(f"threshold ladder:     {bisect_s*1e3:.1f} ms bisection -> "
              f"{ladder_s*1e3:.1f} ms ladder over {len(THRESHOLD_SEEDS)} seeds "
              f"({t_speedup:.1f}x, need >= 2x)")

    assert speedup >= 3.0, f"multi-point stacking speedup {speedup:.2f}x < 3x"
    assert t_speedup >= 2.0, f"threshold ladder speedup {t_speedup:.2f}x < 2x"
