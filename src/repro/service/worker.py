"""Worker-process entry point: pull jobs, execute trials, report back.

Each worker is a separate OS process (spawned, not forked — the server is
multi-threaded, and forking a threaded process inherits arbitrary lock
state).  The protocol is deliberately tiny:

* the server pushes ``(job key, sweep spec dict, segments)`` tuples onto
  the worker's private job queue — ``segments`` an ordered list of
  ``(point index, first trial, n trials)`` ranges, several when the
  scheduler merged compatible grid points into one job — one queue per
  worker, so crash attribution is exact — and ``None`` as the drain
  sentinel;
* the worker executes each job through a long-lived
  :class:`~repro.api.session.Session` bound to the *shared* result store
  (advisory-locked appends; trials already on disk are served as hits) and
  pushes ``("done", worker id, job key, [result dicts], hits, misses)``
  onto the shared event queue;
* a daemon heartbeat thread pushes ``("hb", worker id, timestamp, job
  key)`` every ``heartbeat_interval`` seconds so the server can tell a
  long-running job from a hung worker;
* execution errors are reported as ``("error", ...)`` with a traceback —
  the scheduler fails the sweep, because scenario execution is
  deterministic and a retry would raise identically.  Crashes need no
  protocol at all: the server notices the dead process and requeues.

Trials are executed through :func:`repro.api.sweeps.execute_units` — the
exact code path :func:`run_sweep` uses locally — so a distributed sweep's
per-trial results, store entries and fingerprints are bit-identical to a
single-process run by construction.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Dict, Optional, Tuple

__all__ = ["worker_main"]

#: Seconds a worker blocks on its job queue before re-checking for exit.
_POLL_S = 0.2


def _build_session(config: Dict[str, Any]):
    from ..api.session import Session
    from ..api.store import ResultStore

    store = ResultStore(config["store"], fsync=bool(config.get("fsync", False)))
    return Session(store=store, workers=1, batch=config.get("batch", "auto"))


def worker_main(
    worker_id: str,
    job_queue,
    event_queue,
    config: Dict[str, Any],
) -> None:
    """Run the worker loop until the ``None`` sentinel arrives.

    ``config`` keys: ``store`` (shared store directory), ``batch``
    (execution strategy, as :class:`Session` accepts), ``fsync`` (durable
    appends), ``heartbeat_interval`` (seconds).
    """
    from ..api.sweeps import SweepSpec, execute_units

    session = _build_session(config)
    hb_interval = float(config.get("heartbeat_interval", 1.0))
    current: Dict[str, Optional[str]] = {"job": None}
    stop = threading.Event()

    def _heartbeat() -> None:
        while not stop.wait(hb_interval):
            try:
                event_queue.put(("hb", worker_id, time.time(), current["job"]))
            except Exception:  # queue torn down mid-shutdown
                return

    threading.Thread(target=_heartbeat, daemon=True, name="heartbeat").start()
    event_queue.put(("ready", worker_id, time.time()))

    # Sweep expansion is deterministic but not free; cache the expanded
    # grid per sweep hash so a sweep's later jobs skip re-expansion.
    sweeps: Dict[str, Tuple[Any, list]] = {}

    while True:
        try:
            message = job_queue.get(timeout=_POLL_S)
        except Exception:  # queue.Empty — loop to stay responsive to EOF
            continue
        if message is None:
            break
        job_key, sweep_dict, segments = message
        current["job"] = job_key
        try:
            sweep_hash = sweep_dict.get("__hash__")
            cached = sweeps.get(sweep_hash) if sweep_hash else None
            if cached is None:
                payload = {k: v for k, v in sweep_dict.items() if k != "__hash__"}
                sweep = SweepSpec.from_dict(payload)
                cached = (sweep, sweep.points())
                sweeps[sweep_hash or sweep.hash()] = cached
            sweep, points = cached
            units = [
                (point_index, t)
                for point_index, trial_start, n_trials in segments
                for t in range(trial_start, trial_start + n_trials)
            ]
            specs = [sweep.trial_spec(points[p], t) for p, t in units]
            hits0, misses0 = session.hits, session.misses
            results = execute_units(
                session, units, specs, config.get("batch", "auto")
            )
            event_queue.put(
                (
                    "done",
                    worker_id,
                    job_key,
                    [r.to_dict() for r in results],
                    session.hits - hits0,
                    session.misses - misses0,
                )
            )
        except Exception:
            event_queue.put(
                ("error", worker_id, job_key, traceback.format_exc(limit=20))
            )
        finally:
            current["job"] = None

    stop.set()
    event_queue.put(("bye", worker_id, time.time()))
