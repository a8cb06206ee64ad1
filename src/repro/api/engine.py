"""Execution engine for declarative scenarios.

The engine turns :class:`~repro.api.specs.ScenarioSpec` data into
:class:`~repro.api.specs.RunResult` records:

* :func:`resolve_graph` builds the network named by a :class:`GraphSpec`
  through the generator registry (recursively — params may nest graph
  specs, e.g. a chain replacement's base graph);
* :func:`apply_fault_spec` resolves and applies a fault model, threading
  the run seed into stochastic models;
* :func:`analyze_graph` is the shared fault→prune→measure pipeline — both
  :func:`run` and :class:`repro.core.FaultExpansionAnalyzer` execute
  through it, so the imperative facade and the declarative API can never
  drift apart;
* :func:`run` executes one scenario; :func:`surviving_nodes` replays one
  to recover the survivor set its record does not store; :func:`run_batch`
  executes many through a throwaway :class:`~repro.api.session.Session`,
  deduplicating baseline expansion estimates per (graph spec, mode) and
  fanning scenarios out across worker processes via the
  :mod:`repro.api.executors` layer.

Determinism: a scenario's randomness comes from explicit ``seed`` params
inside its specs (graph identity) plus the scenario ``seed`` (fault draws).
Identical ``(spec, seed)`` pairs therefore produce identical results — byte
for byte, modulo wall-clock ``timings`` — regardless of worker count or
scheduling order (compare with :meth:`RunResult.fingerprint`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SpecError
from ..expansion.estimate import (
    ExpansionEstimate,
    estimate_edge_expansion,
    estimate_node_expansion,
)
from ..faults.model import FaultScenario, apply_node_faults
from ..graphs.graph import Graph
from ..graphs.traversal import component_summary
from ..pruning.cutfinder import CutFinder
from ..pruning.prune import PruneResult
from .registry import FAULT_MODELS, FINDERS, GENERATORS, PRUNERS
from .specs import AnalysisSpec, FaultSpec, GraphSpec, RunResult, ScenarioSpec
from .store import BaselineKey, baseline_key

# Importing the component packages populates the registries; keep these at
# the bottom of the import block so the leaf modules above are ready first.
from .. import faults as _faults  # noqa: F401  (registration side effect)
from ..graphs import generators as _generators  # noqa: F401
from .. import pruning as _pruning  # noqa: F401

__all__ = [
    "resolve_graph",
    "resolve_finder",
    "apply_fault_spec",
    "baseline_expansion",
    "default_epsilon",
    "analyze_graph",
    "run",
    "run_batch",
    "surviving_nodes",
]

# Late import to avoid a hard cycle with repro.core at module-load time.
from ..core.report import FaultToleranceReport  # noqa: E402


def resolve_finder(
    name: Optional[str], params: Optional[Dict[str, Any]] = None
) -> Optional[CutFinder]:
    """Build a cut-finder from its spec name (``None`` → pruner default).

    Finders resolve through the :data:`~repro.api.registry.FINDERS` registry
    like every other component, so third-party strategies plug in with
    ``@register_finder``.
    """
    if name is None:
        return None
    entry = FINDERS.get(name)
    try:
        return entry.fn(**(params or {}))
    except TypeError as exc:
        raise SpecError(f"finder {name!r}: {exc}") from exc


def resolve_graph(spec: GraphSpec) -> Tuple[Graph, Any]:
    """Build the network described by ``spec``.

    Returns ``(graph, raw)`` where ``raw`` is the generator's unmodified
    output — for most generators the :class:`Graph` itself, for composite
    generators a record with a ``.graph`` attribute plus bookkeeping (e.g.
    :class:`~repro.graphs.generators.chains.ChainReplacement`) that raw-mode
    fault models need.
    """
    entry = GENERATORS.get(spec.generator)
    if entry.seeded and "seed" not in spec.params:
        # Graph identity must be spec content: an unseeded stochastic
        # generator would give the baseline phase and the run phase two
        # *different* graphs for the same spec hash.
        raise SpecError(
            f"stochastic generator {spec.generator!r} requires an explicit "
            "integer 'seed' param — graph identity is part of the spec"
        )
    kwargs: Dict[str, Any] = {}
    for key, value in spec.params.items():
        if isinstance(value, GraphSpec):
            value, _ = resolve_graph(value)
        kwargs[key] = value
    try:
        raw = entry.fn(**kwargs)
    except TypeError as exc:
        raise SpecError(f"generator {spec.generator!r}: {exc}") from exc
    graph = raw.graph if hasattr(raw, "graph") else raw
    if not isinstance(graph, Graph):
        raise SpecError(
            f"generator {spec.generator!r} produced {type(raw).__name__}, "
            "expected a Graph or a record with a .graph attribute"
        )
    return graph, raw


def apply_fault_spec(
    graph: Graph,
    fault: Optional[FaultSpec],
    *,
    seed: Optional[int] = None,
    raw: Any = None,
) -> FaultScenario:
    """Resolve and apply a fault model (``None`` → the fault-free scenario).

    Stochastic models receive ``seed`` unless their params pin one
    explicitly; raw-mode models (``takes_raw``) get the generator's raw
    record instead of the plain graph.
    """
    if fault is None:
        return apply_node_faults(graph, np.empty(0, dtype=np.int64), kind="none")
    entry = FAULT_MODELS.get(fault.model)
    kwargs = dict(fault.params)
    if entry.seeded and "seed" not in kwargs:
        kwargs["seed"] = seed
    target = raw if entry.takes_raw and raw is not None else graph
    try:
        scenario = entry.fn(target, **kwargs)
    except TypeError as exc:
        raise SpecError(f"fault model {fault.model!r}: {exc}") from exc
    if not isinstance(scenario, FaultScenario):
        raise SpecError(
            f"fault model {fault.model!r} returned {type(scenario).__name__}, "
            "expected a FaultScenario"
        )
    return scenario


def baseline_expansion(
    graph: Graph, mode: str = "node", *, exact_threshold: int = 14
) -> ExpansionEstimate:
    """Fault-free expansion of ``graph`` in the given mode."""
    if mode == "node":
        return estimate_node_expansion(graph, exact_threshold=exact_threshold)
    return estimate_edge_expansion(graph, exact_threshold=exact_threshold)


def default_epsilon(graph: Graph, mode: str) -> float:
    """Theorem-default pruning epsilon: 1/2 for node mode (Theorem 2.1 with
    k = 2), ``1/(2δ)`` for edge mode (Theorem 3.4's admissible maximum)."""
    if mode == "node":
        return 0.5
    return 1.0 / (2.0 * max(graph.max_degree, 1))


def _identity_prune_result(faulty: Graph, mode: str) -> PruneResult:
    """A no-op PruneResult for pruner-less (percolation-style) analyses."""
    return PruneResult(
        input_graph=faulty,
        surviving_local=np.arange(faulty.n, dtype=np.int64),
        culled=[],
        threshold=0.0,
        kind=mode,
        iterations=0,
    )


def analyze_graph(
    graph: Graph,
    scenario: FaultScenario,
    *,
    mode: str = "node",
    pruner: Optional[str] = "prune",
    epsilon: Optional[float] = None,
    finder: Optional[CutFinder] = None,
    exact_threshold: int = 14,
    measure_expansion: bool = True,
    baseline: Optional[ExpansionEstimate] = None,
) -> FaultToleranceReport:
    """The shared pipeline: components → prune → measure → report.

    This is the single code path behind both ``repro.api.run`` and the
    :class:`~repro.core.FaultExpansionAnalyzer` facade.
    """
    if baseline is None:
        baseline = baseline_expansion(graph, mode, exact_threshold=exact_threshold)
    if epsilon is None:
        epsilon = default_epsilon(graph, mode)
    faulty = scenario.surviving
    components = component_summary(faulty)
    if pruner is None:
        result = _identity_prune_result(faulty, mode)
    else:
        prune_fn = PRUNERS.get(pruner).fn
        result = prune_fn(faulty, baseline.value, epsilon, finder=finder)
    h = result.surviving_graph
    surviving_est: Optional[ExpansionEstimate] = None
    if measure_expansion and h.n >= 2:
        surviving_est = baseline_expansion(h, mode, exact_threshold=exact_threshold)
    return FaultToleranceReport(
        scenario=scenario,
        baseline_expansion=baseline,
        faulty_components=components,
        prune_result=result,
        surviving_expansion=surviving_est,
        epsilon=float(epsilon),
    )


# --------------------------------------------------------------------- #
# run / run_batch
# --------------------------------------------------------------------- #


# The baseline-cache key (graph hash × mode × exact threshold) is defined
# once, in repro.api.store, and shared with the persistent baseline store.
_baseline_cache_key = baseline_key


def _package(
    spec: ScenarioSpec, report: FaultToleranceReport, timings: Dict[str, float]
) -> RunResult:
    prune_result = report.prune_result
    retention = report.expansion_retention
    return RunResult(
        spec=spec,
        spec_hash=spec.hash(),
        seed=spec.seed,
        label=spec.label,
        graph_name=report.scenario.original.name,
        n_original=report.n_original,
        mode=spec.analysis.mode,
        fault_kind=report.scenario.kind,
        f=report.scenario.f,
        fault_fraction=float(report.scenario.fault_fraction),
        faulty_components=int(report.faulty_components.n_components),
        largest_faulty_component=int(report.faulty_components.largest_size),
        n_surviving=report.n_surviving,
        surviving_fraction=float(report.surviving_fraction),
        n_culled_sets=len(prune_result.culled),
        prune_iterations=int(prune_result.iterations),
        baseline_expansion=float(report.baseline_expansion.value),
        baseline_exact=bool(report.baseline_expansion.exact),
        surviving_expansion=(
            float(report.surviving_expansion.value)
            if report.surviving_expansion is not None
            else None
        ),
        expansion_retention=None if retention != retention else float(retention),
        epsilon=float(report.epsilon),
        timings=timings,
    )


def _pipeline(
    spec: ScenarioSpec,
    baseline_cache: Optional[Dict[BaselineKey, ExpansionEstimate]],
    *,
    replay: bool = False,
) -> Tuple[FaultToleranceReport, Dict[str, float]]:
    """Resolve → baseline → fault → analyze for one spec: the body shared
    by :func:`run` and :func:`surviving_nodes`.  A ``replay`` skips the
    survivor expansion estimate, which the survivor set does not depend
    on."""
    if not isinstance(spec, ScenarioSpec):
        raise SpecError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    graph, raw = resolve_graph(spec.graph)
    timings["graph"] = time.perf_counter() - t0

    key = _baseline_cache_key(spec)
    t0 = time.perf_counter()
    if baseline_cache is not None and key in baseline_cache:
        baseline = baseline_cache[key]
    else:
        baseline = baseline_expansion(
            graph, spec.analysis.mode, exact_threshold=spec.analysis.exact_threshold
        )
        if baseline_cache is not None:
            baseline_cache[key] = baseline
    timings["baseline"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scenario = apply_fault_spec(graph, spec.fault, seed=spec.seed, raw=raw)
    timings["fault"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = analyze_graph(
        graph,
        scenario,
        mode=spec.analysis.mode,
        pruner=spec.analysis.pruner,
        epsilon=spec.analysis.epsilon,
        finder=resolve_finder(spec.analysis.finder, spec.analysis.finder_params),
        exact_threshold=spec.analysis.exact_threshold,
        measure_expansion=spec.analysis.measure_expansion and not replay,
        baseline=baseline,
    )
    timings["analyze"] = time.perf_counter() - t0
    return report, timings


def run(
    spec: ScenarioSpec,
    *,
    baseline_cache: Optional[Dict[BaselineKey, ExpansionEstimate]] = None,
) -> RunResult:
    """Execute one scenario spec end-to-end.

    ``baseline_cache`` (keyed by graph-spec hash × mode × exact threshold)
    lets callers amortise the fault-free expansion estimate across scenarios
    sharing a graph; :func:`run_batch` manages one automatically.
    """
    report, timings = _pipeline(spec, baseline_cache)
    return _package(spec, report, timings)


def surviving_nodes(
    spec: ScenarioSpec,
    *,
    baseline_cache: Optional[Dict[BaselineKey, ExpansionEstimate]] = None,
) -> np.ndarray:
    """Original-graph ids of the network ``H`` left after faults *and*
    pruning — the survivor set a :class:`RunResult` does not store.

    Replays the :func:`run` pipeline from ``(spec, seed)`` (minus the
    survivor expansion estimate, which the set does not depend on), so by
    the determinism contract ``len(surviving_nodes(spec)) ==
    run(spec).n_surviving``.  Pass the ``baseline_cache`` the result was
    computed with to skip the fault-free expansion estimate.
    """
    report, _ = _pipeline(spec, baseline_cache, replay=True)
    prune_result = report.prune_result
    return prune_result.input_graph.original_ids[prune_result.surviving_local]


def _baseline_task(spec: ScenarioSpec) -> ExpansionEstimate:
    """Picklable worker: fault-free expansion for one unique graph spec."""
    graph, _ = resolve_graph(spec.graph)
    return baseline_expansion(
        graph, spec.analysis.mode, exact_threshold=spec.analysis.exact_threshold
    )


def _run_task(payload: Tuple[ScenarioSpec, ExpansionEstimate]) -> RunResult:
    """Picklable worker: one scenario with its precomputed baseline."""
    spec, baseline = payload
    return run(spec, baseline_cache={_baseline_cache_key(spec): baseline})


def run_batch(
    specs: Iterable[ScenarioSpec],
    *,
    workers: Optional[int] = 1,
    baseline_cache: Optional[Dict[BaselineKey, ExpansionEstimate]] = None,
    store=None,
) -> List[RunResult]:
    """Execute many scenarios, deduplicating baselines and fanning out.

    This is a thin wrapper over :class:`repro.api.session.Session` — one
    session per call, torn down afterwards.  The session's batch phase 1
    computes the fault-free expansion once per unique ``(graph spec, mode,
    exact threshold)`` — typically the dominant shared cost of a sweep —
    and phase 2 runs every scenario with its baseline pre-resolved.  Both
    phases parallelise over processes when ``workers > 1`` (``None``/``0``
    = auto); results keep input order and are identical to a serial run.

    Pass the same ``baseline_cache`` dict to successive calls to carry the
    phase-1 estimates across batches (it is updated in place), or pass
    ``store`` (a path or :class:`~repro.api.store.ResultStore`) to persist
    and reuse full results across invocations.  For streaming results,
    cross-call cache reuse and hit/miss accounting, hold a ``Session``
    directly.
    """
    from .session import Session  # session builds on the engine; import late

    session = Session(store=store, workers=workers, baseline_cache=baseline_cache)
    return session.run_batch(specs)
