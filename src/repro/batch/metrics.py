"""Batched per-trial metrics: γ and set-expansion ratios.

These are the measurement-side counterparts of the scalar helpers in
:mod:`repro.graphs.traversal` / :mod:`repro.graphs.ops`, evaluated for all
trials of a mask matrix at once.  Degenerate trials are *defined* rather
than raised (the scalar set helpers raise on empty sets; a batched run
cannot afford one bad row aborting the other T−1): undefined ratios come
back as ``nan`` and all-dead rows as ``0.0``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import InvalidParameterError
from ..graphs.graph import Graph
from ..graphs.traversal import (
    batched_boundary_sizes,
    batched_largest_component_fraction,
)

__all__ = ["batched_gamma", "batched_set_expansion"]


def batched_gamma(
    graph: Graph,
    alive: np.ndarray,
    *,
    edge_alive: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``γ`` per trial — largest surviving-component fraction relative to
    the original node count (paper §1.1), shape ``(T,)``.

    Matches the scalar percolation trials exactly: ``0.0`` for ``n = 0``
    or an all-dead row, ``1/n`` when the survivors are all isolated.
    """
    return batched_largest_component_fraction(graph, alive, edge_alive=edge_alive)


def batched_set_expansion(
    graph: Graph, masks: np.ndarray, *, mode: str = "node"
) -> np.ndarray:
    """Per-trial expansion ratio of the given sets, shape ``(T,)`` float.

    ``mode="node"``: ``α(S) = |Γ(S)| / |S|`` (``nan`` for an empty row —
    the scalar :func:`~repro.graphs.ops.node_expansion_of_set` raises
    there).  ``mode="edge"``: ``αe(S) = |(S, V∖S)| / min(|S|, |V∖S|)``
    (``nan`` when ``S`` is empty or the whole node set).
    """
    if mode not in ("node", "edge"):
        raise InvalidParameterError(f"mode must be 'node' or 'edge', got {mode!r}")
    masks = np.asarray(masks)
    if masks.dtype != np.bool_ or masks.ndim != 2 or masks.shape[1] != graph.n:
        raise InvalidParameterError(
            f"masks must be a boolean (T, {graph.n}) matrix"
        )
    T, n = masks.shape
    sizes = masks.sum(axis=1, dtype=np.int64)
    out = np.full(T, np.nan, dtype=np.float64)
    if T == 0:
        return out
    if mode == "node":
        boundary = batched_boundary_sizes(graph, masks)
        ok = sizes > 0
        np.divide(boundary, sizes, out=out, where=ok)
        return np.where(ok, out, np.nan)
    # edge mode: count directed slots u→v with u ∈ S, v ∉ S — each cut
    # edge contributes exactly one such slot.
    if graph.indices.size:
        src = graph.index.slot_src
        cut = (masks[:, src] & ~masks[:, graph.indices]).sum(axis=1, dtype=np.int64)
    else:
        cut = np.zeros(T, dtype=np.int64)
    denom = np.minimum(sizes, n - sizes)
    ok = denom > 0
    np.divide(cut, denom, out=out, where=ok)
    return np.where(ok, out, np.nan)
