"""Declarative scenario API: specs, registries and the batch run engine.

Quickstart — a scenario is data, execution is shared::

    from repro.api import GraphSpec, FaultSpec, AnalysisSpec, ScenarioSpec, run

    spec = ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 16, "d": 2}),
        fault=FaultSpec("random_node", {"p": 0.05}),
        analysis=AnalysisSpec(mode="node"),
        seed=7,
    )
    result = run(spec)                    # RunResult with full provenance
    run_batch([spec.with_seed(s) for s in range(20)], workers=4)

For cached, streaming, resumable execution use the session front door —
results are content-addressed by scenario hash, so identical scenarios are
served from the store instead of re-executing::

    from repro.api import Session

    session = Session("sweep-cache", workers=4)
    for result in session.run_iter(spec.with_seed(s) for s in range(500)):
        ...                               # yields as scenarios complete

The same scenario round-trips through JSON (``spec.to_json()`` /
``ScenarioSpec.from_json``) and runs from the command line::

    python -m repro run scenario.json --store sweep-cache

Grids of scenarios with Monte-Carlo trials per point are first-class too
(:mod:`repro.api.sweeps`): a ``SweepSpec`` expands deterministically into
per-trial work units, aggregates results online as they stream out of the
executor, and supports adaptive (CI-width / budget driven) trial
allocation::

    from repro.api import Axis, SamplingPolicy, SweepSpec, run_sweep

    sweep = SweepSpec(
        base=spec.with_seed(None),
        axes=(Axis("fault.params.p", (0.02, 0.05, 0.1, 0.2)),),
        trials=50,
        policy=SamplingPolicy(kind="ci_width", target=0.02),
    )
    result = run_sweep(sweep, session)    # resumable at trial granularity

See DESIGN.md for the architecture and :mod:`repro.api.registry` for how
components self-register.
"""

from .registry import (
    FAULT_MODELS,
    FINDERS,
    GENERATORS,
    PRUNERS,
    Registry,
    RegistryEntry,
    list_fault_models,
    list_finders,
    list_generators,
    list_pruners,
    register_fault_model,
    register_finder,
    register_generator,
    register_pruner,
)
from .specs import (
    AnalysisSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScenarioSpec,
    canonical_json,
    spec_hash,
)
# Execution-layer attributes resolve lazily (PEP 562).  Component modules
# import ``repro.api.registry`` at their own import time, which initialises
# this package; importing the engine (or anything built on it: session,
# store, executors) eagerly here would re-enter those partially initialised
# modules.  The registry/specs leaves are safe to load eagerly.
_LAZY_ATTRS = {
    "analyze_graph": ".engine",
    "apply_fault_spec": ".engine",
    "baseline_expansion": ".engine",
    "default_epsilon": ".engine",
    "resolve_finder": ".engine",
    "resolve_graph": ".engine",
    "run": ".engine",
    "run_batch": ".engine",
    "surviving_nodes": ".engine",
    "engine": ".engine",
    "Session": ".session",
    "ResultStore": ".store",
    "StoreStats": ".store",
    "baseline_key": ".store",
    "Executor": ".executors",
    "SerialExecutor": ".executors",
    "ProcessExecutor": ".executors",
    "make_executor": ".executors",
    "Axis": ".sweeps",
    "SamplingPolicy": ".sweeps",
    "SweepSpec": ".sweeps",
    "SweepResult": ".sweeps",
    "Metric": ".sweeps",
    "METRICS": ".sweeps",
    "register_metric": ".sweeps",
    "run_sweep": ".sweeps",
}


def __getattr__(name: str):
    if name in _LAZY_ATTRS:
        import importlib

        module = importlib.import_module(_LAZY_ATTRS[name], __name__)
        if name == "engine":
            return module
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_ATTRS))


__all__ = [
    "GraphSpec",
    "FaultSpec",
    "AnalysisSpec",
    "ScenarioSpec",
    "RunResult",
    "canonical_json",
    "spec_hash",
    "Registry",
    "RegistryEntry",
    "GENERATORS",
    "FAULT_MODELS",
    "PRUNERS",
    "FINDERS",
    "register_generator",
    "register_fault_model",
    "register_pruner",
    "register_finder",
    "list_generators",
    "list_fault_models",
    "list_pruners",
    "list_finders",
    "resolve_graph",
    "resolve_finder",
    "apply_fault_spec",
    "baseline_expansion",
    "default_epsilon",
    "analyze_graph",
    "run",
    "run_batch",
    "surviving_nodes",
    "Session",
    "ResultStore",
    "StoreStats",
    "baseline_key",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "Axis",
    "SamplingPolicy",
    "SweepSpec",
    "SweepResult",
    "Metric",
    "METRICS",
    "register_metric",
    "run_sweep",
]
