"""Lean result records: no stored survivor set, old stores still served.

A :class:`RunResult` holds O(1) numbers per trial; the survivor set is
replayed by :func:`repro.api.engine.surviving_nodes` when it is needed.
``tests/fixtures/legacy_store`` is a store written before that change —
the 8-trial γ(p) sweep below, each record still carrying its
``surviving_nodes`` list and fingerprinted with it.  Such stores must keep
serving hits (same keys, verified against the fingerprint they were
written with) and survive compaction.
"""

import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import SweepSpec, run_sweep

LEGACY_STORE = Path(__file__).resolve().parents[1] / "fixtures" / "legacy_store"


def gamma_sweep(sides: int = 8) -> SweepSpec:
    """The two-point, four-trial measure-only sweep the fixture holds."""
    return SweepSpec.from_dict({
        "base": {
            "graph": {"generator": "torus", "params": {"sides": sides, "d": 2}},
            "fault": {"model": "random_node", "params": {"p": 0.1}},
            "analysis": {"mode": "node", "pruner": None,
                         "measure_expansion": False},
        },
        "axes": [{"path": "fault.params.p", "values": [0.1, 0.4]}],
        "trials": 4,
        "seed": 7,
        "metrics": ["gamma"],
    })


@pytest.fixture
def legacy_store(tmp_path) -> Path:
    path = tmp_path / "legacy"
    shutil.copytree(LEGACY_STORE, path)
    return path


class TestLegacyStore:
    def test_fixture_holds_survivor_lists(self):
        segments = sorted(LEGACY_STORE.glob("results/shard-*/seg-*.jsonl"))
        lines = [line for seg in segments for line in seg.read_text().splitlines()]
        assert len(lines) == 8
        assert all('"surviving_nodes":[' in line for line in lines)

    def test_warm_sweep_serves_every_legacy_record(self, legacy_store):
        session = Session(legacy_store)
        warm = run_sweep(gamma_sweep(), session)
        assert (session.hits, session.misses) == (8, 0)
        assert session.store.corrupt_entries == 0
        cold = run_sweep(gamma_sweep(), Session())
        assert warm.fingerprint() == cold.fingerprint()

    def test_tampered_legacy_record_is_rejected(self, legacy_store):
        segment = sorted(legacy_store.glob("results/shard-*/seg-*.jsonl"))[0]
        text = segment.read_text()
        start = text.index('"surviving_nodes":[') + len('"surviving_nodes":[')
        digit = text[start]
        # same byte length, so the offset index still frames the line
        segment.write_text(
            text[:start] + ("1" if digit != "1" else "2") + text[start + 1:]
        )
        session = Session(legacy_store)
        run_sweep(gamma_sweep(), session)
        assert (session.hits, session.misses) == (7, 1)
        assert session.store.corrupt_entries == 1

    def test_cache_compact_keeps_legacy_records(self, legacy_store, capsys):
        assert main(["cache", "compact", "--store", str(legacy_store),
                     "--force"]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        store = ResultStore(legacy_store)
        assert len(store) == 8
        session = Session(store)
        run_sweep(gamma_sweep(), session)
        assert (session.hits, session.misses) == (8, 0)
        assert store.corrupt_entries == 0


def test_record_size_does_not_grow_with_n(tmp_path):
    """Bytes per stored result stay flat from n=64 to n=9216 (an O(n)
    payload would make the large records over 100x bigger)."""
    per_entry = []
    for sides in (8, 96):
        store = ResultStore(tmp_path / f"torus{sides}")
        run_sweep(gamma_sweep(sides), Session(store))
        counts = store.engine.counts("results")
        assert counts["entries"] == 8
        per_entry.append(counts["bytes"] / counts["entries"])
        assert store.stats().bytes_per_result == pytest.approx(per_entry[-1])
    assert max(per_entry) / min(per_entry) <= 1.1
