"""Per-layer spans for the benchmark, recorded from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` replaces each
layer's public functions with timing wrappers *wherever callers look them
up*: every ``repro.*`` module attribute bound to the original (so names
brought in with ``from ... import`` are covered), the ``PRUNERS`` registry
entries, ``ALL_EXPERIMENTS`` and ``PAPER_FIGURES``.  Methods are replaced
on their class.  :meth:`Installation.uninstall` puts every original back.

A span records a name, start, end and parent.  Spans stay in memory and
are written out when the traced run ends.  A layer's total time counts
only the outermost span of its name (``resolve_graph`` recurses); its
self time is each span's duration minus the time its direct children
cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

GAMMAS = ("gamma-cold", "gamma-warm")


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: calls per wrapped target (several targets can share a span name)
        self.hook_calls: Counter = Counter()
        self._stack: List[list] = []  # [name, start, child_time, span_id]
        self._open_names: Counter = Counter()
        self._next_id = 0

    def reset(self) -> None:
        self.__init__()

    def open(self, name: str) -> None:
        self.calls[name] += 1
        self._open_names[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        name, start, child_time, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.self_time[name] += duration - child_time
        if self._open_names[name] == 1:
            self.total[name] += duration
        self._open_names[name] -= 1
        self.spans.append((span_id, name, start, end, parent))

    def write(self, path, *, op: int) -> None:
        """Append this operation's spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"op": op, "id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent}
                ) + "\n")


class _SpanIter:
    """Iterator proxy that re-enters a span for every ``next`` — keeps a
    lazy generator's work (e.g. ``Session.run_iter``) inside its layer."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.open(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.close()

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


@dataclasses.dataclass(frozen=True)
class Hook:
    """One wrapped public call.

    ``target`` is ``module:function`` or ``module:Class.method``.  ``span``
    is the layer span name (``None`` for a counter-only hook).  ``after``
    receives ``(tracer, args, kwargs, result, before_state)``.  ``must``
    names the workloads on which a zero call count is a benchmark bug.
    """

    target: str
    span: Optional[str]
    must: Tuple[str, ...] = ()
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None
    lazy_result: bool = False


# -- counters taken at the wrapped boundaries --------------------------- #

def _session_counts(args, kwargs):
    sess = args[0]
    return sess.hits, sess.misses


def _session_after(tr, args, kwargs, result, state):
    sess = args[0]
    tr.counts["session.hits"] += sess.hits - state[0]
    tr.counts["session.misses"] += sess.misses - state[1]


def _next_round_after(tr, args, kwargs, result, state):
    if result:
        tr.counts["sweeps.rounds"] += 1


def _mask_after(tr, args, kwargs, result, state):
    tr.counts["faults.mask_rows"] += int(result[0].shape[0])


def _kernel_after(tr, args, kwargs, result, state):
    graph = args[0]
    alive = args[1] if len(args) > 1 else kwargs.get("alive")
    edge_alive = kwargs.get("edge_alive")
    tr.counts["kernel.rows"] += int(result.shape[0])
    nbytes = graph.indptr.nbytes + graph.indices.nbytes
    for mat in (alive, edge_alive):
        if mat is not None:
            nbytes += getattr(mat, "nbytes", 0)
    tr.counts["kernel.input_bytes_computed"] += int(nbytes)


def _records_after(tr, args, kwargs, result, state):
    tr.counts["batch.records"] += sum(len(g) for g in result)


def _store_get_after(tr, args, kwargs, result, state):
    if result is not None:
        tr.counts["store.get_hits"] += 1


def _append_raw_before(args, kwargs):
    line = args[3] if len(args) > 3 else kwargs["line"]
    return len(line)


def _append_raw_after(tr, args, kwargs, result, state):
    tr.counts["storage.bytes_appended"] += state


def _prune_after(tr, args, kwargs, result, state):
    tr.counts["pruning.culled_sets"] += len(result.culled)
    tr.counts["pruning.iterations"] += int(result.iterations)


def _threshold_after(tr, args, kwargs, result, state):
    tr.counts["percolation.probes"] += int(result.n_probes)


_SESSION = dict(before=_session_counts, after=_session_after)
_STORE_GET = dict(after=_store_get_after)
_STORE_RUN = GAMMAS + ("paper-smoke",)

#: Every wrapped call.  ``must`` follows the layer table's "exercised by"
#: column, narrowed to the calls a workload actually makes (a cold run
#: decodes nothing; a warm run computes nothing).
HOOKS: Tuple[Hook, ...] = (
    # api.sweeps
    Hook("repro.api.sweeps:SweepSpec.trial_spec", "sweeps.trial_spec",
         GAMMAS + ("paper-smoke",)),
    Hook("repro.api.sweeps:SweepDriver.next_round", "sweeps.alloc",
         GAMMAS + ("paper-smoke",), after=_next_round_after),
    Hook("repro.api.sweeps:SweepDriver.fold", "sweeps.fold",
         GAMMAS + ("paper-smoke",)),
    # api.session
    Hook("repro.api.session:Session.run_points_batched", "session.dispatch",
         GAMMAS + ("paper-smoke",), **_SESSION),
    Hook("repro.api.session:Session.run_iter", "session.dispatch",
         ("paper-smoke",), lazy_result=True, **_SESSION),
    # batch.faults
    Hook("repro.batch.faults:batched_fault_masks", "faults.mask",
         ("gamma-cold", "paper-smoke"), after=_mask_after),
    # graphs.traversal (component kernel)
    Hook("repro.graphs.traversal:batched_connected_components",
         "kernel.components", ("gamma-cold", "paper-smoke"),
         after=_kernel_after),
    Hook("repro.graphs.traversal:batched_component_stats", "kernel.stats",
         ("gamma-cold", "paper-smoke")),
    Hook("repro.graphs.traversal:component_summary",
         "traversal.component_summary", ("paper-smoke",)),
    # batch.engine (record build)
    Hook("repro.batch.engine:run_points", "batch.run_points",
         ("gamma-cold", "paper-smoke"), after=_records_after),
    # api.specs
    Hook("repro.api.specs:RunResult.fingerprint", "specs.fingerprint",
         _STORE_RUN),
    Hook("repro.api.specs:RunResult.to_dict", "specs.to_dict",
         ("gamma-cold", "paper-smoke")),
    Hook("repro.api.specs:RunResult.from_dict", "specs.from_dict",
         ("gamma-warm",)),
    Hook("repro.api.specs:ScenarioSpec.hash", "specs.hash", _STORE_RUN),
    # api.store + storage
    Hook("repro.api.store:ResultStore.__init__", "store.open", _STORE_RUN),
    Hook("repro.api.store:ResultStore.put_result", "store.put",
         ("gamma-cold", "paper-smoke")),
    Hook("repro.api.store:ResultStore.put_baseline", "store.put",
         ("gamma-cold", "paper-smoke")),
    Hook("repro.api.store:ResultStore.put_table", "store.put",
         ("paper-smoke",)),
    Hook("repro.api.store:ResultStore.get_result", "store.get",
         _STORE_RUN, **_STORE_GET),
    Hook("repro.api.store:ResultStore.get_baseline", "store.get",
         ("gamma-cold", "paper-smoke"), **_STORE_GET),
    Hook("repro.api.store:ResultStore.get_table", "store.get",
         ("paper-smoke",), **_STORE_GET),
    Hook("repro.storage.engine:StorageEngine.append", "storage.append",
         ("gamma-cold", "paper-smoke")),
    Hook("repro.storage.engine:StorageEngine.append_raw", None,
         ("gamma-cold", "paper-smoke"),
         before=_append_raw_before, after=_append_raw_after),
    Hook("repro.storage.engine:StorageEngine.get_record", "storage.get_record",
         ("gamma-warm", "paper-smoke")),
    # api.engine (scalar pipeline)
    Hook("repro.api.engine:run", "engine.run", ("paper-smoke",)),
    Hook("repro.api.engine:resolve_graph", "engine.resolve_graph",
         ("gamma-cold", "paper-smoke")),
    Hook("repro.api.engine:apply_fault_spec", "engine.fault",
         ("paper-smoke",)),
    Hook("repro.api.engine:analyze_graph", "engine.analyze",
         ("paper-smoke",)),
    Hook("repro.api.engine:baseline_expansion", "engine.baseline",
         ("gamma-cold", "paper-smoke")),
    # pruning (wrapped in the PRUNERS registry and every module binding)
    Hook("repro.pruning.prune:prune", "pruning.prune",
         ("paper-smoke",), after=_prune_after),
    Hook("repro.pruning.prune2:prune2", "pruning.prune",
         ("paper-smoke",), after=_prune_after),
    # expansion + spectral
    Hook("repro.expansion.estimate:estimate_node_expansion",
         "expansion.estimate", ("gamma-cold", "paper-smoke")),
    Hook("repro.spectral.eigen:fiedler_vector", "spectral.fiedler",
         ("gamma-cold", "paper-smoke")),
    # paper-only layers
    Hook("repro.percolation.threshold:estimate_critical_probability",
         "percolation.threshold", ("paper-smoke",), after=_threshold_after),
    Hook("repro.span.span:span_exact", "span", ("paper-smoke",)),
    Hook("repro.span.compact_enum:random_compact_set", "span", ("paper-smoke",)),
    Hook("repro.span.mesh_tree:mesh_boundary_tree", "span", ("paper-smoke",)),
    Hook("repro.span.conjectures:survey_span", "span", ("paper-smoke",)),
    Hook("repro.batch.rounds:cascade_rounds", "rounds.cascade", ("paper-smoke",)),
    Hook("repro.report.render:render_markdown", "report.render", ("paper-smoke",)),
    Hook("repro.report.render:render_html", "report.render", ("paper-smoke",)),
    Hook("repro.report.figures:save_figure", "report.render", ("paper-smoke",)),
    Hook("repro.report.manifest:build_manifest", "report.manifest",
         ("paper-smoke",)),
    Hook("repro.report.manifest:write_manifest", "report.manifest",
         ("paper-smoke",)),
)

#: Import sites the wrappers must reach (``from ... import`` bindings that
#: a module-only patch would miss).  Checked on every install.
KNOWN_SITES = (
    ("repro.batch.engine", "batched_connected_components"),
    ("repro.batch.engine", "batched_fault_masks"),
    ("repro.batch.engine", "baseline_expansion"),
    ("repro.batch.engine", "run_points"),
    ("repro.expansion.sweep", "fiedler_vector"),
    ("repro.spectral.cheeger", "fiedler_vector"),
    ("repro.api.engine", "component_summary"),
    ("repro.api.engine", "estimate_node_expansion"),
    ("repro.core.experiments", "estimate_critical_probability"),
    ("repro.core.experiments", "span_exact"),
    ("repro.report.paper", "render_markdown"),
    ("repro.report.paper", "build_manifest"),
)


def _wrap(fn, hook: Hook, tracer: Tracer):
    name = hook.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.hook_calls[hook.target] += 1
        state = hook.before(args, kwargs) if hook.before else None
        if name is None:
            result = fn(*args, **kwargs)
        else:
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook.lazy_result:
                result = _SpanIter(tracer, name, result)
        if hook.after:
            hook.after(tracer, args, kwargs, result, state)
        return result

    wrapper.__perfbench_hook__ = hook.target
    return wrapper


def import_all() -> None:
    """Import every ``repro`` module so the identity scan sees all bindings
    (a module imported after install would keep the wrapper forever)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Installation:
    """The replaced bindings of one :func:`install`; undone by
    :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def set_item(self, mapping, key, new, old) -> None:
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every :data:`HOOKS` target at every binding; verify the known
    ``from ... import`` sites were reached."""
    from repro.api.registry import PRUNERS
    from repro.core.experiments import ALL_EXPERIMENTS
    from repro.report.figures import PAPER_FIGURES

    inst = Installation()
    modules = _repro_modules()
    for hook in HOOKS:
        modname, qual = hook.target.split(":")
        home = importlib.import_module(modname)
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(home, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, hook, tracer))
            else:
                new = _wrap(raw, hook, tracer)
            inst.set(owner, attr, new, raw)
            continue
        raw = getattr(home, qual)
        new = _wrap(raw, hook, tracer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    inst.set(mod, attr, new, raw)
        for name in PRUNERS.names():
            entry = PRUNERS._entries[name]
            if entry.fn is raw:
                inst.set_item(PRUNERS._entries, name,
                              dataclasses.replace(entry, fn=new), entry)
    for eid, runner in list(ALL_EXPERIMENTS.items()):
        hook = Hook(f"ALL_EXPERIMENTS[{eid!r}]", f"experiments.{eid}")
        inst.set_item(ALL_EXPERIMENTS, eid, _wrap(runner, hook, tracer), runner)
    for name, (eid, builder) in list(PAPER_FIGURES.items()):
        hook = Hook(f"PAPER_FIGURES[{name!r}]", "report.render")
        inst.set_item(PAPER_FIGURES, name,
                      (eid, _wrap(builder, hook, tracer)), (eid, builder))
    missed = [
        f"{mod}.{attr}" for mod, attr in KNOWN_SITES
        if not hasattr(getattr(importlib.import_module(mod), attr),
                       "__perfbench_hook__")
    ]
    for name in PRUNERS.names():
        if not hasattr(PRUNERS.get(name).fn, "__perfbench_hook__"):
            missed.append(f"PRUNERS[{name!r}]")
    if missed:
        inst.uninstall()
        raise RuntimeError("wrappers missed call sites: " + ", ".join(missed))
    return inst


def zero_call_hooks(tracer: Tracer, workload: str) -> List[str]:
    """Hooks that should have run on ``workload`` but recorded no call."""
    from repro.core.experiments import ALL_EXPERIMENTS

    bad = [hook.target for hook in HOOKS
           if workload in hook.must and tracer.hook_calls[hook.target] == 0]
    if workload == "paper-smoke":
        bad += [target for target in (f"ALL_EXPERIMENTS[{eid!r}]"
                                      for eid in ALL_EXPERIMENTS)
                if tracer.hook_calls[target] == 0]
    return bad


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced operation (``trace.overhead_s``
    is added by the caller, who knows the untraced wall time)."""
    t, s, c, k = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    hits, misses = k["session.hits"], k["session.misses"]
    out: Dict[str, float] = {
        "sweeps.trial_spec_s": t["sweeps.trial_spec"],
        "sweeps.trial_spec_calls": c["sweeps.trial_spec"],
        "sweeps.alloc_s": t["sweeps.alloc"],
        "sweeps.rounds": k["sweeps.rounds"],
        "sweeps.fold_s": t["sweeps.fold"],
        "sweeps.fold_calls": c["sweeps.fold"],
        "session.dispatch_self_s": s["session.dispatch"],
        "session.hits": hits,
        "session.misses": misses,
        "session.hit_ratio": _ratio(hits, hits + misses),
        "faults.mask_s": t["faults.mask"],
        "faults.mask_rows": k["faults.mask_rows"],
        "kernel.components_s": t["kernel.components"],
        "kernel.stats_s": t["kernel.stats"],
        "kernel.calls": c["kernel.components"],
        "kernel.rows": k["kernel.rows"],
        "kernel.rows_per_call": _ratio(k["kernel.rows"], c["kernel.components"]),
        "kernel.input_bytes_computed": k["kernel.input_bytes_computed"],
        "traversal.component_summary_s": t["traversal.component_summary"],
        "batch.record_build_self_s": s["batch.run_points"],
        "batch.records": k["batch.records"],
        "specs.fingerprint_s": t["specs.fingerprint"],
        "specs.fingerprint_calls": c["specs.fingerprint"],
        "specs.to_dict_s": t["specs.to_dict"],
        "specs.from_dict_s": t["specs.from_dict"],
        "specs.hash_s": t["specs.hash"],
        "store.open_s": t["store.open"],
        "store.put_s": t["store.put"],
        "store.put_calls": c["store.put"],
        "store.get_s": t["store.get"],
        "store.get_calls": c["store.get"],
        "store.hit_ratio": _ratio(k["store.get_hits"], c["store.get"]),
        "storage.append_s": t["storage.append"],
        "storage.get_record_s": t["storage.get_record"],
        "storage.bytes_appended": k["storage.bytes_appended"],
        "engine.run_s": t["engine.run"],
        "engine.run_calls": c["engine.run"],
        "engine.resolve_graph_s": t["engine.resolve_graph"],
        "engine.fault_s": t["engine.fault"],
        "engine.analyze_self_s": s["engine.analyze"],
        "engine.baseline_s": t["engine.baseline"],
        "engine.baseline_calls": c["engine.baseline"],
        "pruning.prune_s": t["pruning.prune"],
        "pruning.calls": c["pruning.prune"],
        "pruning.culled_sets": k["pruning.culled_sets"],
        "pruning.iterations": k["pruning.iterations"],
        "expansion.estimate_s": t["expansion.estimate"],
        "expansion.estimate_calls": c["expansion.estimate"],
        "spectral.fiedler_s": t["spectral.fiedler"],
        "spectral.fiedler_calls": c["spectral.fiedler"],
        "percolation.threshold_s": t["percolation.threshold"],
        "percolation.probes": k["percolation.probes"],
        "span.s": t["span"],
        "rounds.cascade_s": t["rounds.cascade"],
    }
    for i in range(1, 15):
        out[f"experiments.e{i}_s"] = t[f"experiments.e{i}"]
    out["report.render_s"] = t["report.render"]
    out["report.manifest_s"] = t["report.manifest"]
    return {key: float(v) for key, v in out.items()}
