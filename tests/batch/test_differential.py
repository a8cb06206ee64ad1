"""Differential-testing harness: batched and scalar execution must agree.

The batched engine's contract is *bit-identical substitutability* — not
"statistically the same", identical.  Rather than assuming it, these tests
generate random (graph, fault rate, seed) cases with hypothesis (reusing
the shared strategies in ``tests/property/strategies.py``) and assert
equality at every observable layer:

* kernel layer — mask-parallel components/BFS vs per-trial scalar
  traversal of the induced subgraph;
* engine layer — :func:`repro.batch.engine.run_trials` vs
  :func:`repro.api.engine.run` per-trial :class:`RunResult` records and
  fingerprints;
* store layer — the ``results.jsonl`` entries a batched sweep persists vs
  a scalar sweep's, and warm resume across strategies;
* percolation layer — ``site_percolation``/``bond_percolation`` samples.

Each hypothesis test runs 100 generated examples by default, so the suite
covers well over the acceptance criterion's 100 (graph, p, seed) cases on
every run.  The whole module is the ``differential`` tier (see
``pyproject.toml`` markers) and runs on every PR in CI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from property.strategies import graphs  # tests/property/strategies.py

from repro.api import engine as scalar_engine
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.sweeps import Axis, SweepSpec, run_sweep
from repro.batch import engine as batch_engine
from repro.batch.faults import batched_fault_masks
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    batched_bfs_distances,
    batched_component_stats,
    batched_connected_components,
    bfs_distances,
    component_summary,
    connected_components,
)
from repro.percolation.bonds import bond_percolation
from repro.percolation.sites import site_percolation

pytestmark = pytest.mark.differential

MEASURE_ONLY = AnalysisSpec(mode="node", pruner=None, measure_expansion=False)


# --------------------------------------------------------------------- #
# kernel layer
# --------------------------------------------------------------------- #


@given(
    g=graphs(min_nodes=2, max_nodes=12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 6),
)
@settings(max_examples=100, deadline=None)
def test_batched_components_match_scalar_subgraph(g, p, seed, trials):
    """Masked components == components of the induced survivor subgraph."""
    rng = np.random.default_rng(seed)
    alive = rng.random((trials, g.n)) < p
    labels = batched_connected_components(g, alive)
    n_components, largest = batched_component_stats(labels)
    for t in range(trials):
        survivors = np.flatnonzero(alive[t])
        summary = component_summary(g.subgraph(survivors))
        assert n_components[t] == summary.n_components
        assert largest[t] == summary.largest_size
        # canonical labels: every alive node carries the smallest alive id
        # of its component — compare the partitions exactly
        expected = np.full(g.n, -1, dtype=np.int64)
        if survivors.size:
            sub_labels = connected_components(g.subgraph(survivors))
            for lab in np.unique(sub_labels):
                members = survivors[sub_labels == lab]
                expected[members] = members.min()
        assert np.array_equal(labels[t], expected)


@given(
    g=graphs(min_nodes=2, max_nodes=14, max_extra_edges=20),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_batched_components_match_scalar_on_edge_masks(g, p, seed, trials):
    """Composed node + edge masks == components of the survivor subgraph
    of the host with its dead edges removed."""
    rng = np.random.default_rng(seed)
    alive = rng.random((trials, g.n)) >= p / 2
    edge_alive = rng.random((trials, g.m)) >= p
    labels = batched_connected_components(g, alive, edge_alive=edge_alive)
    for t in range(trials):
        host = Graph.from_edges(g.n, g.edge_array()[edge_alive[t]])
        survivors = np.flatnonzero(alive[t])
        expected = np.full(g.n, -1, dtype=np.int64)
        if survivors.size:
            sub_labels = connected_components(host.subgraph(survivors))
            for lab in np.unique(sub_labels):
                members = survivors[sub_labels == lab]
                expected[members] = members.min()
        assert np.array_equal(labels[t], expected)


@given(
    g=graphs(min_nodes=2, max_nodes=12),
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_batched_bfs_matches_scalar(g, seed, trials):
    rng = np.random.default_rng(seed)
    sources = rng.random((trials, g.n)) < 0.3
    dist = batched_bfs_distances(g, sources)
    for t in range(trials):
        seeds = np.flatnonzero(sources[t])
        if seeds.size == 0:
            assert (dist[t] == -1).all()
        else:
            assert np.array_equal(dist[t], bfs_distances(g, seeds))


# --------------------------------------------------------------------- #
# engine layer
# --------------------------------------------------------------------- #


@given(
    n=st.integers(4, 24),
    extra=st.integers(0, 30),
    gseed=st.integers(0, 2**20),
    p=st.floats(0.0, 1.0),
    seed0=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 5),
)
@settings(max_examples=100, deadline=None)
def test_run_trials_matches_scalar_engine(n, extra, gseed, p, seed0, trials):
    """Per-trial RunResults — records, fingerprints, store keys — agree."""
    m = min(n - 1 + extra, n * (n - 1) // 2)
    gspec = GraphSpec("gnm_random", {"n": n, "m": m, "seed": gseed})
    specs = [
        ScenarioSpec(
            graph=gspec,
            fault=FaultSpec("random_node", {"p": p}),
            analysis=MEASURE_ONLY,
            seed=seed0 + t,
            label=f"diff:{t}",
        )
        for t in range(trials)
    ]
    batched = batch_engine.run_trials(specs)
    scalar = [scalar_engine.run(spec) for spec in specs]
    for b, s in zip(batched, scalar):
        assert b == s  # dataclass equality (timings excluded by design)
        assert b.fingerprint() == s.fingerprint()
    # survivor sets are replayed, not stored: the scalar replay must pick
    # exactly the nodes the batched fault masks leave alive
    graph, _ = scalar_engine.resolve_graph(gspec)
    masks, _ = batched_fault_masks(
        graph, "random_node", {"p": p}, [spec.seed for spec in specs]
    )
    for spec, mask in zip(specs, masks):
        assert np.array_equal(
            scalar_engine.surviving_nodes(spec), graph.original_ids[~mask]
        )


@given(
    gseed=st.integers(0, 2**20),
    seed0=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_run_trials_faultless_matches_scalar(gseed, seed0):
    gspec = GraphSpec("gnm_random", {"n": 12, "m": 18, "seed": gseed})
    specs = [
        ScenarioSpec(graph=gspec, analysis=MEASURE_ONLY, seed=seed0 + t)
        for t in range(3)
    ]
    batched = batch_engine.run_trials(specs)
    scalar = [scalar_engine.run(spec) for spec in specs]
    assert batched == scalar


# --------------------------------------------------------------------- #
# store layer
# --------------------------------------------------------------------- #


def _sweep(trials=5):
    return SweepSpec(
        base=ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 6, "d": 2}),
            fault=FaultSpec("random_node", {"p": 0.1}),
            analysis=MEASURE_ONLY,
        ),
        axes=(Axis("fault.params.p", (0.1, 0.45, 0.8)),),
        trials=trials,
        seed=99,
        metrics=("gamma",),
        label="diff-store",
    )


def _store_entries(path):
    """Live result records keyed by spec hash, timings dropped (wall-clock
    is the one field outside the equivalence contract)."""
    entries = {}
    for key, record in ResultStore(path).engine.iter_live("results"):
        record["result"].pop("timings")
        entries[key] = record
    return entries


def test_store_entries_identical_across_strategies(tmp_path):
    sweep = _sweep()
    scalar_session = Session(store=tmp_path / "scalar", batch=False)
    batched_session = Session(store=tmp_path / "batched", batch=True)
    scalar_result = run_sweep(sweep, scalar_session)
    batched_result = run_sweep(sweep, batched_session)
    assert scalar_result.fingerprint() == batched_result.fingerprint()
    scalar_entries = _store_entries(tmp_path / "scalar")
    batched_entries = _store_entries(tmp_path / "batched")
    assert scalar_entries == batched_entries
    assert scalar_session.misses == batched_session.misses == 15


def test_warm_resume_across_strategies(tmp_path):
    """A store written by one strategy fully warms the other."""
    sweep = _sweep()
    cold = Session(store=tmp_path / "store", batch=False)
    cold_result = run_sweep(sweep, cold)
    warm = Session(store=tmp_path / "store", batch=True)
    warm_result = run_sweep(sweep, warm)
    assert (warm.hits, warm.misses) == (15, 0)
    assert warm_result.fingerprint() == cold_result.fingerprint()


def test_partial_resume_mixes_strategies(tmp_path):
    """Half-filled scalar store + batched completion == scalar fingerprint."""
    sweep = _sweep()
    full = run_sweep(_sweep(), Session(batch=False))
    # persist only the first 2 trials of each point
    seeding = Session(store=tmp_path / "store", batch=False)
    for point in sweep.points():
        for t in range(2):
            seeding.run(sweep.trial_spec(point, t))
    resumed = Session(store=tmp_path / "store", batch=True)
    result = run_sweep(sweep, resumed)
    assert resumed.hits == 6 and resumed.misses == 9
    assert result.fingerprint() == full.fingerprint()


# --------------------------------------------------------------------- #
# percolation layer
# --------------------------------------------------------------------- #


@given(
    g=graphs(min_nodes=2, max_nodes=14),
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_site_percolation_samples_identical(g, q, seed):
    batched = site_percolation(g, q, n_trials=5, seed=seed, batch=True)
    scalar = site_percolation(g, q, n_trials=5, seed=seed, batch=False)
    assert np.array_equal(batched.samples, scalar.samples)
    assert batched.gamma_mean == scalar.gamma_mean
    assert batched.gamma_std == scalar.gamma_std


@given(
    g=graphs(min_nodes=2, max_nodes=14),
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_bond_percolation_samples_identical(g, q, seed):
    batched = bond_percolation(g, q, n_trials=5, seed=seed, batch=True)
    scalar = bond_percolation(g, q, n_trials=5, seed=seed, batch=False)
    assert np.array_equal(batched.samples, scalar.samples)
    assert batched.gamma_mean == scalar.gamma_mean
    assert batched.gamma_std == scalar.gamma_std
