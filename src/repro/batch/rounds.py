"""Sequential-round mask kernels: iterate (T, n) updates to fixpoint.

The batched engine's existing kernels are single-shot — one gather/reduce
pass answers the whole question (components, distances, boundaries).
Cascading failures are different: each round's fault set depends on the
loads the previous round redistributed, so the kernel must *iterate*.
:func:`run_rounds` is the generic driver — it applies a caller-supplied
per-round step to a ``(T, n)`` boolean matrix until no row changes,
tracking per-row round counts — and :func:`cascade_rounds` instantiates
it for the load-redistribution cascade of
:mod:`repro.faults.cascade`.

Bit-identity contract: row ``t`` of :func:`cascade_rounds` equals
:func:`repro.faults.cascade.cascade_fixpoint` on seed row ``t`` — same
per-round operations on the cached :class:`~repro.graphs.index.GraphIndex`
views, and the same padded ``np.add.reduceat`` over CSR segments (numpy's
segment reduction is bitwise identical for a 1-D row and a 2-D ``axis=1``
batch), so float summation order matches exactly.  Rows are independent,
so stacking trials never changes any row's trajectory; rows that reach
their fixpoint early pass through later rounds unchanged (their shares
are all zero).  The contract is enforced by
``tests/batch/test_cascade_differential.py``.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import InvalidParameterError, SolverError
from ..graphs.graph import Graph

__all__ = ["run_rounds", "cascade_rounds"]


def _check_mask_matrix(graph: Graph, masks: np.ndarray) -> np.ndarray:
    """Validate a ``(T, n)`` boolean mask matrix (loudly, like the
    single-shot kernels: NaN/negative entries arrive as a non-bool dtype
    and are rejected rather than silently truthified)."""
    masks = np.asarray(masks)
    if masks.dtype != np.bool_:
        raise InvalidParameterError(
            f"mask matrix must be boolean, got dtype {masks.dtype}"
        )
    if masks.ndim != 2 or masks.shape[1] != graph.n:
        raise InvalidParameterError(
            f"mask matrix must have shape (T, {graph.n}), got {masks.shape}"
        )
    return masks


def run_rounds(
    masks: np.ndarray,
    step: Callable[[np.ndarray], np.ndarray],
    *,
    max_rounds: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drive a per-round ``(T, n)`` mask update to fixpoint.

    ``step`` maps the current boolean matrix to the next one; iteration
    stops when an application leaves every row unchanged.  Returns
    ``(final_masks, rounds)`` where ``rounds[t]`` counts the applications
    that changed row ``t``.  ``step`` must be monotone per row (a row at
    its fixpoint stays there), which is what makes per-row counts
    well-defined while rows finish at different times.

    Raises :class:`~repro.errors.SolverError` after ``max_rounds``
    changing applications without convergence (``None`` = no cap).
    """
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise InvalidParameterError(
            f"run_rounds needs a (T, n) matrix, got shape {masks.shape}"
        )
    rounds = np.zeros(masks.shape[0], dtype=np.int64)
    applied = 0
    while True:
        new = step(masks)
        changed = (new != masks).any(axis=1)
        if not changed.any():
            return new, rounds
        rounds += changed
        masks = new
        applied += 1
        if max_rounds is not None and applied >= max_rounds:
            raise SolverError(
                f"run_rounds did not converge within {max_rounds} rounds"
            )


def cascade_rounds(
    graph: Graph, seed_masks: np.ndarray, alpha: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched load-redistribution cascades: ``T`` trials, one graph pass
    per round.

    ``seed_masks`` is ``(T, n)`` boolean (True = initially failed); the
    return is ``(failed_masks, rounds)`` with ``failed_masks[t]`` the
    fixpoint fault set of trial ``t`` and ``rounds[t]`` its recruiting
    round count — both bit-identical to
    :func:`repro.faults.cascade.cascade_fixpoint` per row.
    """
    seed_masks = _check_mask_matrix(graph, seed_masks)
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise InvalidParameterError(
            f"alpha must be a finite float >= 0, got {alpha!r}"
        )
    T, n = seed_masks.shape
    if T == 0 or n == 0:
        return seed_masks.copy(), np.zeros(T, dtype=np.int64)
    idx = graph.index
    indices = graph.indices
    starts = idx.starts
    m2 = indices.shape[0]
    degrees = idx.degrees.astype(np.float64)
    capacity = (1.0 + alpha) * degrees
    load = np.broadcast_to(degrees, (T, n)).copy()
    # closure state: which nodes failed in the previous round (they are
    # the only givers this round) and each trial's current load vector
    state = {"newly": seed_masks.copy(), "load": load}
    buf = np.zeros((T, m2 + 1), dtype=np.float64)

    def _rows(values: np.ndarray) -> np.ndarray:
        buf[:, :m2] = values
        out = np.add.reduceat(buf, starts, axis=1)
        if idx.has_isolated:
            out[:, idx.isolated] = 0
        return out

    def _step(failed: np.ndarray) -> np.ndarray:
        newly, load = state["newly"], state["load"]
        alive = ~failed
        alive_deg = _rows(alive[:, indices])
        denom = np.where(alive_deg > 0, alive_deg, 1.0)
        share = np.where(newly & (alive_deg > 0), load / denom, 0.0)
        incoming = _rows(share[:, indices])
        load = np.where(alive, load + incoming, load)
        newly = alive & (load > capacity)
        state["newly"], state["load"] = newly, load
        return failed | newly

    # each changing round recruits >= 1 node in some row, so n + 1
    # applications always suffice; exceeding the cap means a kernel bug
    return run_rounds(seed_masks, _step, max_rounds=n + 1)
