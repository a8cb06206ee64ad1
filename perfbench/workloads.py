"""The benchmark's three workloads: inputs, the timed operation, the check.

Each workload is built from the seed alone and runs in one process with
``workers=1``.  ``setup`` prepares inputs (``gamma-warm`` reads a store
that ``GammaWarm.fill`` wrote in an earlier process); ``operation`` is the
timed call and returns what the check needs; ``check`` runs outside the
timed region and returns ``(attempted, failed)`` with an operation
counted per trial (sweeps) or per check cell and expected table
(``paper-smoke``).

Why these three:

* ``gamma-cold`` — a γ(p) site-percolation sweep into an empty store:
  mask sampling, the component kernel on large stacked batches, record
  build + JSON encode and store appends do the work; pruning and spectral
  code only the one baseline eigensolve.
* ``gamma-warm`` — the same sweep through a freshly opened session on a
  store that a separate process filled during set-up: store open, lookup,
  decode, fingerprint verification and fold; the kernel does nothing.  A
  change that makes appends cheaper but lookups dearer shows up here.
* ``paper-smoke`` — the whole e1–e14 suite, cold, with rendering: the only
  workload reaching span, threshold bisection, cascades, routing, the
  report and the scalar fault → Prune → measure pipeline (Fiedler solves,
  cut finder, induced subgraphs), and the one where the kernel gets many
  small calls.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api import (
    AnalysisSpec,
    Axis,
    FaultSpec,
    GraphSpec,
    ResultStore,
    ScenarioSpec,
    Session,
    SweepSpec,
    run_sweep,
)
from repro.api import engine as api_engine

GAMMA_SIDES = 48
GAMMA_POINTS = 16
GAMMA_TRIALS = 64
PAPER_TABLES = tuple(f"e{i}" for i in range(1, 15))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Outcome:
    """What one timed operation produced."""

    def __init__(self, wall_s: float, store_dir: Path, payload: Any) -> None:
        self.wall_s = wall_s
        self.store_dir = store_dir
        self.payload = payload
        self.records = 0
        self.bytes_per_record = 0.0

    def measure(self) -> None:
        """Count result records and store bytes (after tracing is off)."""
        self.records = len(ResultStore(self.store_dir))
        self.bytes_per_record = dir_bytes(self.store_dir) / max(self.records, 1)


class Workload:
    name = ""
    #: operations attempted by one timed call (for failed_frac when it raises)
    operations = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work))

    def cleanup(self, outcome: Optional[Outcome]) -> None:
        pass

    def close(self) -> None:
        pass


def gamma_sweep(seed: int) -> SweepSpec:
    base = ScenarioSpec(
        graph=GraphSpec("torus", {"sides": GAMMA_SIDES, "d": 2}),
        fault=FaultSpec("random_node", {"p": 0.2}),
        analysis=AnalysisSpec(pruner=None, measure_expansion=False),
    )
    ps = tuple(round(float(p), 6) for p in np.linspace(0.2, 0.6, GAMMA_POINTS))
    return SweepSpec(
        base=base,
        axes=(Axis("fault.params.p", ps),),
        trials=GAMMA_TRIALS,
        seed=seed,
        metrics=("gamma",),
    )


def _sweep_op(sweep: SweepSpec, store_dir: Path) -> Tuple[float, Any, Session]:
    t0 = time.perf_counter()
    session = Session(store_dir, workers=1)
    result = run_sweep(sweep, session)
    return time.perf_counter() - t0, result, session


class GammaCold(Workload):
    name = "gamma-cold"
    operations = GAMMA_POINTS * GAMMA_TRIALS

    def setup(self) -> None:
        self.sweep = gamma_sweep(self.seed)
        self._scalar_checked = False

    def operation(self) -> Outcome:
        store_dir = self.fresh_dir()
        wall, result, _session = _sweep_op(self.sweep, store_dir)
        return Outcome(wall, store_dir, result)

    def check(self, out: Outcome) -> Tuple[int, int]:
        result = out.payload
        store = ResultStore(out.store_dir)
        failed = set()
        for point, summary in zip(self.sweep.points(), result.points):
            fps = summary.trial_fingerprints
            for t in range(GAMMA_TRIALS):
                if t >= len(fps) or self.sweep.trial_spec(point, t) not in store:
                    failed.add((point.index, t))
        if not self._scalar_checked:
            # one trial per point through the scalar engine must reproduce
            # the batched record bit-for-bit
            cache: Dict = {}
            for point, summary in zip(self.sweep.points(), result.points):
                spec = self.sweep.trial_spec(point, 0)
                scalar = api_engine.run(spec, baseline_cache=cache)
                fps = summary.trial_fingerprints
                if not fps or scalar.fingerprint() != fps[0]:
                    failed.add((point.index, 0))
            self._scalar_checked = True
        if out.records != self.operations:
            failed.add(("records", out.records))
        return self.operations, len(failed)

    def cleanup(self, out: Optional[Outcome]) -> None:
        if out is not None:
            shutil.rmtree(out.store_dir, ignore_errors=True)


class GammaWarm(Workload):
    """Reads a store that a separate process filled with ``fill``, so the
    cold sweep's memory stays out of this process's peak RSS (``run.py``
    adds the fill's time to ``setup_s``)."""

    name = "gamma-warm"
    operations = GAMMA_POINTS * GAMMA_TRIALS

    def __init__(self, seed: int, work: Path, store: Path) -> None:
        super().__init__(seed, work)
        self.store_dir = Path(store)

    def fill(self) -> None:
        """Run the cold sweep into the store and save its fingerprints
        next to it for the warm process's check."""
        _wall, result, _session = _sweep_op(gamma_sweep(self.seed), self.store_dir)
        fingerprints = {
            "sweep": result.fingerprint(),
            "trials": [list(p.trial_fingerprints) for p in result.points],
        }
        self.fill_file().write_text(json.dumps(fingerprints))

    def fill_file(self) -> Path:
        return self.store_dir.with_name(self.store_dir.name + ".fill.json")

    def setup(self) -> None:
        self.sweep = gamma_sweep(self.seed)
        self.filled = json.loads(self.fill_file().read_text())

    def operation(self) -> Outcome:
        wall, result, session = _sweep_op(self.sweep, self.store_dir)
        return Outcome(wall, self.store_dir, (result, session.misses))

    def check(self, out: Outcome) -> Tuple[int, int]:
        result, misses = out.payload
        if result.fingerprint() != self.filled["sweep"]:
            return self.operations, self.operations
        failed = sum(
            a != b
            for warm, cold in zip(result.points, self.filled["trials"])
            for a, b in zip(warm.trial_fingerprints, cold)
        )
        return self.operations, max(failed, misses)

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.fill_file().unlink(missing_ok=True)


class PaperSmoke(Workload):
    name = "paper-smoke"
    operations = len(PAPER_TABLES)

    def setup(self) -> None:
        # paper-only modules: imported here so they count only in this
        # workload's set-up time
        from repro.report.paper import PaperConfig, run_paper
        from repro.report.tables import ExperimentTable

        self.config = PaperConfig(seed=self.seed, smoke=True)
        self.run_paper = run_paper
        self.table_cls = ExperimentTable

    def operation(self) -> Outcome:
        out_dir = self.fresh_dir()
        t0 = time.perf_counter()
        self.run_paper(self.config, out_dir)
        return Outcome(time.perf_counter() - t0, out_dir / "store", out_dir)

    def check(self, out: Outcome) -> Tuple[int, int]:
        attempted = failed = 0
        for eid in PAPER_TABLES:
            attempted += 1
            path = out.payload / "tables" / f"{eid}.json"
            if not path.is_file():
                failed += 1
                continue
            table = self.table_cls.from_json(path.read_text(encoding="utf-8"))
            passed, total = table.checks()
            attempted += total
            failed += total - passed
        return attempted, failed

    def cleanup(self, out: Optional[Outcome]) -> None:
        if out is not None:
            shutil.rmtree(out.payload, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (GammaCold, GammaWarm, PaperSmoke)
}
