"""The repository benchmark: cold/warm γ(p) sweeps and the paper smoke
suite, with per-layer timings from a traced run.

Usage, from the repository root::

    python3 perfbench/run.py                              # every workload
    python3 perfbench/run.py --workload gamma-cold --seed 3
    python3 perfbench/run.py --workload paper-smoke --trace 1

Workloads: ``gamma-cold``, ``gamma-warm`` and ``paper-smoke`` (see
``workloads.py`` for what each stresses and why).

A run of one workload starts ``SETUPS`` fresh Python processes one after
another.  Each imports the package from ``src/`` and sets the workload up
from ``--seed``; ``setup_s`` is the median of their set-up times.  The
last one then runs one untimed warm-up operation and repeats the timed
operation until ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``) are used, checking every output outside the timed
region.  For ``gamma-warm`` another process fills the store first; its
time is added to every set-up time.  Reported values are medians over
the run's samples, with sample counts.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s``,
``peak_rss_mb`` and ``store_bytes_per_record``; ``failed_frac`` is
printed with them.  ``--trace 1`` reports the per-layer metrics and
``trace.overhead_s``, measured by wrapping each layer's public functions
(``layers.py``); a wrapper that records no call on a workload that
should exercise it fails the run.

Unless the package source is missing (exit code 2, nothing printed), the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a workload whose
operations all failed is in the counts but has no metrics.  The exit code
is nonzero when a check fails.  Scratch stores, span files and per-run
records go to ``.perfbench-work/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("gamma-cold", "gamma-warm", "paper-smoke")
#: Set-ups per run; the last set-up process also measures.
SETUPS = 3
#: Child-process environment defaults (a value the caller sets wins and is
#: recorded).  BLAS/OpenMP pools get one thread: workloads run with
#: workers=1, and on a small shared machine threaded eigensolves were both
#: slower and noisier.  A fixed hash seed gives every process the same
#: dict/set layout, so processes differ less from one another.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Wall-clock budget of one workload run, processes included.
BUDGET_S = 170.0

#: ROADMAP item 1's cProfile split of a 3.3 s cold n=2304 sweep.  Its
#: "JSON encode" is every json.dumps: the canonical JSON inside
#: RunResult.fingerprint plus the line encoding inside StorageEngine.append
#: (RunResult.to_dict only builds the dict), so the matching traced sum is
#: fingerprint + append; the to_dict + append sum is printed as asked.
ROADMAP_COLD = (
    ("kernel.components_s", ("kernel.components_s",), 1.5),
    ("specs.to_dict_s + storage.append_s",
     ("specs.to_dict_s", "storage.append_s"), 0.53 + 0.35),
    ("specs.fingerprint_s + storage.append_s",
     ("specs.fingerprint_s", "storage.append_s"), 0.53 + 0.35),
)
ROADMAP_BYTES_PER_RECORD = 7100.0


def git_commit() -> str:
    """HEAD's commit read from ``.git`` (no git process: a checkout that is
    not a repository must not pick up an enclosing one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_seconds() -> float:
    """The run length fixed in ``BENCHMARK.json``: the default of
    ``--seconds``, so both sides of a comparison measure equally long."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "span.s":
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    if name.endswith("per_call"):
        return "rows/call"
    return "count"


def run_worker(args: list, env: dict, deadline: float) -> dict:
    """Run one worker process and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"exceeded the {BUDGET_S:.0f} s budget")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, run_dir: Path) -> dict:
    """Set the workload up ``SETUPS`` times, each in a fresh process, and
    measure in the last one; return its report with every set-up time."""
    deadline = time.monotonic() + BUDGET_S
    env = {**PINNED_ENV, **os.environ}
    common = ["--workload", workload, "--seed", str(args.seed),
              "--work", str(run_dir)]
    fill_s = 0.0
    if workload == "gamma-warm":
        # a process of its own fills the store, so the cold sweep's time
        # counts into set-up and its memory into no figure
        common += ["--store", str(run_dir / "warm-store")]
        fill_s = run_worker(common + ["--fill"], env, deadline)["setup_s"]
    setups = [run_worker(common + ["--setup-only"], env, deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    extra = ["--slice", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = run_dir / f"spans-{workload}-seed{args.seed}.jsonl"
        extra += ["--spans", str(spans)]
    report = run_worker(common + extra, env, deadline)
    report["setups"] = [fill_s + t for t in setups + [report["setup_s"]]]
    return report


def median_metric(unit: str, values: list) -> dict:
    return {"value": float(statistics.median(values)), "unit": unit,
            "samples": len(values)}


def summarise(workload: str, report: dict, trace: int) -> dict:
    """Reduce the run's samples to medians (with sample counts).

    A workload whose operations all raised has no samples: it keeps its
    attempted and failed counts and reports no metric."""
    walls = report["walls"]
    metrics = {}
    if walls and not trace:
        metrics = {
            "wall_s": median_metric("s", walls),
            "setup_s": median_metric("s", report["setups"]),
            "peak_rss_mb": median_metric("MB", [report["peak_rss_mb"]]),
            "store_bytes_per_record": median_metric(
                "bytes", report["bytes_per_record"]),
        }
    elif walls and report["layers"]:
        # the worker already took each layer metric's median
        traced = len(report["traced_walls"])
        metrics = {name: {"value": float(value), "unit": layer_unit(name),
                          "samples": traced}
                   for name, value in report["layers"].items()}
        # each traced operation directly follows an untraced one, so the
        # pair difference cancels most of the machine's slow drifts
        metrics["trace.overhead_s"] = median_metric("s", [
            t - u for u, t in zip(walls, report["traced_walls"])])
    return {"workload": workload, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics, "report": report}


def print_summary(s: dict, trace: int) -> None:
    frac = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"{s['workload']}: failed_frac {frac:.6g} "
          f"({s['failed']} of {s['attempted']} operations)")
    for name, m in s["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']:<9} "
              f"(median of {m['samples']})")
    if trace and s["workload"] == "gamma-cold" and s["metrics"]:
        m = {k: v["value"] for k, v in s["metrics"].items()}
        print("  cross-check against ROADMAP item 1 (cProfile, 3.3 s cold run):")
        for label, parts, ref in ROADMAP_COLD:
            print(f"    {label:<40} {sum(m[p] for p in parts):>10.4g}  "
                  f"roadmap {ref:g}")
        bpr = statistics.median(s["report"]["bytes_per_record"])
        print(f"    {'store_bytes_per_record':<40} {bpr:>10.4g}  "
              f"roadmap {ROADMAP_BYTES_PER_RECORD:g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'repro'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    env = {
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            s = summarise(name, run_workload(name, args, run_dir), args.trace)
        except RuntimeError as exc:
            # a crashed worker counts as one failed operation; the other
            # workloads still run and the result line is still printed
            print(f"error: {name}: {exc}", file=sys.stderr)
            s = {"workload": name, "attempted": 1, "failed": 1,
                 "metrics": {}, "report": None}
        if s["report"]:
            env.update(s["report"]["env"])
        summaries.append(s)
    print("# env " + json.dumps(env, sort_keys=True))
    for s in summaries:
        print_summary(s, args.trace)
    (run_dir / "result.json").write_text(
        json.dumps({"env": env, "trace": args.trace, "runs": summaries},
                   indent=1) + "\n")
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in summaries[0]["metrics"].items()}
    else:
        metrics = {f"{s['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
                   for s in summaries for k, v in s["metrics"].items()}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
