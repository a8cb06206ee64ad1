"""The session front door: cached, streaming, resumable scenario execution.

A :class:`Session` ties together the three execution subsystems:

* the **engine** (:mod:`repro.api.engine`) — how one scenario is executed;
* an **executor** (:mod:`repro.api.executors`) — how a batch is scheduled
  (serial loop or process pool, one interface);
* an optional **result store** (:mod:`repro.api.store`) — content-addressed
  persistence keyed by scenario hash, so identical scenarios are never
  executed twice, across calls *and* across process lifetimes.

The cache logic leans entirely on the API's determinism contract: a
scenario's randomness comes from explicit seeds inside its specs (graph
identity) plus the scenario ``seed`` (fault draws), and
:func:`~repro.api.engine.resolve_graph` rejects unseeded stochastic
generators.  Identical ``(spec, seed)`` therefore ⇒ identical result, which
is exactly what makes ``spec.hash()`` a sound cache key — a stored result is
bit-for-bit substitutable for a fresh execution (modulo wall-clock
``timings``, which are excluded from fingerprints).

Three consequences fall out:

* **warm batches short-circuit** — a fully cached batch performs zero
  engine calls, including the baseline phase;
* **interrupted sweeps resume** — every completed scenario is appended to
  the store the moment it finishes (:meth:`Session.run_iter` streams
  results in completion order), so a crashed or killed sweep restarts from
  whatever already landed on disk;
* **parallelism is invisible** — ``workers=1`` and ``workers=N`` produce
  identical fingerprints, cached or fresh.

:func:`repro.api.engine.run_batch` is a thin wrapper over a default
(storeless) ``Session``; experiments and the CLI build sessions explicitly.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import SpecError
from ..expansion.estimate import ExpansionEstimate
from ..graphs.graph import Graph
from .executors import Executor, make_executor
from .specs import RunResult, ScenarioSpec
from .store import BaselineKey, ResultStore, baseline_key

# The engine import populates the component registries as a side effect, so
# a Session is runnable the moment it is constructed.
from . import engine as _engine

__all__ = ["Session"]


def _validate_specs(specs: Iterable[ScenarioSpec]) -> List[ScenarioSpec]:
    spec_list = list(specs)
    for spec in spec_list:
        if not isinstance(spec, ScenarioSpec):
            raise SpecError(
                f"expected ScenarioSpecs, got {type(spec).__name__}"
            )
    return spec_list


class Session:
    """Execution context with a baseline cache, an executor and (optionally)
    a persistent result store.

    Parameters
    ----------
    store:
        ``None`` (no persistence), a path (a :class:`ResultStore` is opened
        there), or a ready :class:`ResultStore`.
    workers:
        Parallelism degree for the default executor: ``1`` = serial,
        ``None``/``0`` = auto-sized process pool, ``N`` = pool of N.
    executor:
        Explicit :class:`~repro.api.executors.Executor`; overrides
        ``workers``.
    baseline_cache:
        In-memory fault-free-estimate cache, keyed by
        ``(graph hash, mode, exact_threshold)``.  Pass a shared dict to
        carry estimates across sessions; it is updated in place.
    refresh:
        When true, ignore existing store entries (recompute everything) but
        still write results through — a forced cache rebuild.
    batch:
        Default execution strategy for homogeneous trial groups (the sweep
        layer reads it): ``"auto"`` — batch eligible multi-trial groups
        through :mod:`repro.batch` (results are bit-identical to scalar
        execution, so this is on by default); ``True`` — batch every
        eligible group, even singletons; ``False`` — always scalar.

    A storeless serial session is the cheapest way to execute specs
    programmatically; identical scenarios are deduplicated per session run
    only when a store is attached:

    >>> from repro.api.specs import FaultSpec, GraphSpec, ScenarioSpec
    >>> session = Session()                        # in-process, no store
    >>> spec = ScenarioSpec(
    ...     graph=GraphSpec("cycle_graph", {"n": 12}),
    ...     fault=FaultSpec("random_node", {"p": 0.2}),
    ...     seed=3,
    ... )
    >>> result = session.run(spec)
    >>> (result.n_original, result.graph_name)
    (12, 'C12')
    >>> session.run(spec).fingerprint() == result.fingerprint()  # deterministic
    True
    >>> (session.hits, session.misses)             # no store → all misses
    (0, 2)
    """

    def __init__(
        self,
        store: Union[None, str, os.PathLike, ResultStore] = None,
        *,
        workers: Optional[int] = 1,
        executor: Optional[Executor] = None,
        baseline_cache: Optional[Dict[BaselineKey, ExpansionEstimate]] = None,
        refresh: bool = False,
        batch: Union[str, bool] = "auto",
    ) -> None:
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self.executor = executor if executor is not None else make_executor(workers)
        self.refresh = refresh
        if not (batch is True or batch is False or batch == "auto"):
            raise SpecError(
                f"batch must be 'auto', True or False, got {batch!r}"
            )
        self.batch = batch
        self._baselines = baseline_cache if baseline_cache is not None else {}
        #: Scenarios served from the store / actually executed, cumulatively.
        self.hits = 0
        self.misses = 0

    # -- cache plumbing ------------------------------------------------- #

    def lookup(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec`` (refresh mode always misses)."""
        if self.store is None or self.refresh:
            return None
        return self.store.get_result(spec)

    def _record(self, result: RunResult) -> None:
        if self.store is not None:
            self.store.put_result(result)

    def _ensure_baselines(self, specs: List[ScenarioSpec]) -> None:
        """Resolve the fault-free estimate for every unique baseline key in
        ``specs``: memory cache, then store, then one computation per key
        (fanned out through the executor)."""
        missing: Dict[BaselineKey, ScenarioSpec] = {}
        for spec in specs:
            key = baseline_key(spec)
            if key in self._baselines:
                continue
            if self.store is not None and not self.refresh:
                stored = self.store.get_baseline(key)
                if stored is not None:
                    self._baselines[key] = stored
                    continue
            missing.setdefault(key, spec)
        if not missing:
            return
        estimates = self.executor.map(_engine._baseline_task, list(missing.values()))
        for key, estimate in zip(missing, estimates):
            self._baselines[key] = estimate
            if self.store is not None:
                self.store.put_baseline(key, estimate)

    # -- execution ------------------------------------------------------ #

    def run(self, spec: ScenarioSpec) -> RunResult:
        """Execute (or serve from the store) a single scenario."""
        (spec,) = _validate_specs([spec])
        cached = self.lookup(spec)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        self._ensure_baselines([spec])
        result = _engine.run(spec, baseline_cache=self._baselines)
        self._record(result)
        return result

    def run_batch(self, specs: Iterable[ScenarioSpec]) -> List[RunResult]:
        """Execute a batch; results in input order (see :meth:`run_iter`)."""
        return list(self.run_iter(specs))

    def run_iter(
        self, specs: Iterable[ScenarioSpec], *, ordered: bool = True
    ) -> Iterator[RunResult]:
        """Stream results as scenarios complete instead of barriering.

        Cached scenarios are served without any execution (a fully warm
        batch performs zero engine calls — no baseline phase either); the
        rest are dispatched through the executor, and every computed result
        is appended to the store *before* it is yielded, so an interrupted
        consumer loses nothing that was yielded.  Closing the iterator
        mid-sweep cancels still-queued scenarios promptly; at most the
        handful in flight at that moment are recomputed on resume.

        ``ordered=True`` (default) yields input order — each result is
        yielded as soon as it *and all its predecessors* are available.
        ``ordered=False`` yields cached results first, then computed ones in
        completion order (lowest latency to first result).
        """
        spec_list = _validate_specs(specs)
        done: Dict[int, RunResult] = {}
        pending: List[Tuple[int, ScenarioSpec]] = []
        for i, spec in enumerate(spec_list):
            cached = self.lookup(spec)
            if cached is not None:
                done[i] = cached
            else:
                pending.append((i, spec))
        self.hits += len(done)
        self.misses += len(pending)
        return self._merge_stream(spec_list, done, pending, ordered)

    def _merge_stream(
        self,
        spec_list: List[ScenarioSpec],
        done: Dict[int, RunResult],
        pending: List[Tuple[int, ScenarioSpec]],
        ordered: bool,
    ) -> Iterator[RunResult]:
        if pending:
            self._ensure_baselines([spec for _, spec in pending])
            payloads = [
                (spec, self._baselines[baseline_key(spec)]) for _, spec in pending
            ]
            stream = self.executor.imap(_engine._run_task, payloads)
        else:
            stream = iter(())
        indices = [i for i, _ in pending]
        if not ordered:
            for i in sorted(done):
                yield done[i]
            for _, result in stream:
                self._record(result)
                yield result
            return
        next_i = 0
        while next_i in done:  # cached prefix: yield before touching the stream
            yield done.pop(next_i)
            next_i += 1
        for k, result in stream:
            self._record(result)
            done[indices[k]] = result
            while next_i in done:
                yield done.pop(next_i)
                next_i += 1
        while next_i in done:
            yield done.pop(next_i)
            next_i += 1

    def run_trials_batched(self, specs: Iterable[ScenarioSpec]) -> List[RunResult]:
        """Execute homogeneous trials through the batched engine.

        ``specs`` must share one (graph, fault, analysis) and differ only in
        seed/label — the shape of one sweep grid point.  Store semantics are
        identical to :meth:`run_iter`: cached trials are served without
        execution, the rest are evaluated as **one** mask-matrix batch
        (:func:`repro.batch.engine.run_trials`) and appended to the store;
        hit/miss counters advance exactly as the scalar path's would, and
        the results (input order) are bit-identical to scalar execution.
        """
        from ..batch import engine as _batch_engine  # late: batch builds on api

        spec_list = _validate_specs(specs)
        if not spec_list:
            return []
        results: List[Optional[RunResult]] = []
        missing: List[Tuple[int, ScenarioSpec]] = []
        for i, spec in enumerate(spec_list):
            cached = self.lookup(spec)
            results.append(cached)
            if cached is None:
                missing.append((i, spec))
        self.hits += len(spec_list) - len(missing)
        self.misses += len(missing)
        if missing:
            missing_specs = [spec for _, spec in missing]
            self._ensure_baselines(missing_specs)
            baseline = self._baselines[baseline_key(missing_specs[0])]
            for (i, _), result in zip(
                missing,
                _batch_engine.run_trials(missing_specs, baseline=baseline),
            ):
                self._record(result)
                results[i] = result
        return results  # type: ignore[return-value]  # every slot is filled

    def run_points_batched(
        self, groups: List[List[ScenarioSpec]]
    ) -> List[List[RunResult]]:
        """Execute several compatible grid points as stacked batches.

        ``groups`` holds one homogeneous spec list per grid point; all
        groups must share a :func:`repro.batch.engine.stack_key` (same
        graph + analysis; fault models may differ).  Store semantics match
        :meth:`run_trials_batched` per group — cached trials are served
        without execution, the rest are evaluated by **one**
        :func:`repro.batch.engine.run_points` call stacking every group's
        missing trials into shared mask tensors — and each record is
        bit-identical to the per-point path, so sweep fingerprints are
        unchanged.  Returns one result list per group, in input order.
        """
        from ..batch import engine as _batch_engine  # late: batch builds on api

        group_lists = [_validate_specs(g) for g in groups]
        results: List[List[Optional[RunResult]]] = []
        missing: List[Tuple[int, List[int], List[ScenarioSpec]]] = []
        n_specs = 0
        n_missing = 0
        for gi, spec_list in enumerate(group_lists):
            slots: List[Optional[RunResult]] = []
            idxs: List[int] = []
            for i, spec in enumerate(spec_list):
                cached = self.lookup(spec)
                slots.append(cached)
                if cached is None:
                    idxs.append(i)
            results.append(slots)
            n_specs += len(spec_list)
            if idxs:
                missing.append((gi, idxs, [spec_list[i] for i in idxs]))
                n_missing += len(idxs)
        self.hits += n_specs - n_missing
        self.misses += n_missing
        if missing:
            flat = [spec for _, _, specs in missing for spec in specs]
            self._ensure_baselines(flat)
            baseline = self._baselines[baseline_key(flat[0])]
            computed = _batch_engine.run_points(
                [specs for _, _, specs in missing],
                baseline=baseline,
            )
            for (gi, idxs, _), group_results in zip(missing, computed):
                for i, result in zip(idxs, group_results):
                    self._record(result)
                    results[gi][i] = result
        return results  # type: ignore[return-value]  # every slot is filled

    # -- conveniences ---------------------------------------------------- #

    def resolve_graph(self, spec) -> Tuple[Graph, Any]:
        """Resolve a :class:`GraphSpec` through the generator registry (the
        session-level alias of :func:`repro.api.engine.resolve_graph`)."""
        return _engine.resolve_graph(spec)

    def surviving_nodes(self, spec: ScenarioSpec) -> np.ndarray:
        """Original-graph ids of ``spec``'s surviving network ``H``,
        replayed by :func:`repro.api.engine.surviving_nodes` with this
        session's baseline estimates (memory, then store), so the replay
        never re-solves a baseline the session already holds."""
        (spec,) = _validate_specs([spec])
        self._ensure_baselines([spec])
        return _engine.surviving_nodes(spec, baseline_cache=self._baselines)

    def stats(self):
        """Store statistics (:class:`~repro.api.store.StoreStats`), or
        ``None`` for a storeless session."""
        return None if self.store is None else self.store.stats()
