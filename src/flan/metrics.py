"""Rank correlation measures.

kendall_tau is the tie-adjusted tau-b computed in O(n log n): sort by
(x, y), count discordant pairs as strict inversions of y (merge-level counts),
and correct for ties on either side.  spearman_rho is Pearson correlation of
midranks.  Both return NaN when either input is constant, since rank
correlation is undefined there; callers treat NaN as "no signal".
"""

from __future__ import annotations

import numpy as np

from ._kernels import count_inversions


def _as_vector(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = _as_vector(x, "x")
    y = _as_vector(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("rank correlation needs at least two observations")
    return x, y


def _tied_pairs(*sorted_columns: np.ndarray) -> int:
    """Sum over runs of rows equal in every column of t*(t-1)/2.

    The columns share one row order that puts equal rows next to each other.
    """
    changed = np.any([c[1:] != c[:-1] for c in sorted_columns], axis=0)
    runs = np.diff(np.flatnonzero(np.concatenate(([True], changed, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def kendall_tau(x, y) -> float:
    x, y = _check_pair(x, y)
    n = x.shape[0]
    order = np.lexsort((y, x))
    xs = x[order]
    ys = y[order]
    total = n * (n - 1) // 2
    xtie = _tied_pairs(xs)
    ytie = _tied_pairs(np.sort(y, kind="stable"))
    ntie = _tied_pairs(xs, ys)
    # With x-ties broken by y, inversions of y are exactly the discordant pairs.
    discordant = count_inversions(ys)
    con_minus_dis = total - xtie - ytie + ntie - 2 * discordant
    denom_sq = float(total - xtie) * float(total - ytie)
    if denom_sq <= 0.0:
        return float("nan")
    tau = con_minus_dis / np.sqrt(denom_sq)
    return float(min(1.0, max(-1.0, tau)))


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    # the run at 0-based positions i..j = first..first+counts-1 gets (i + j) / 2 + 1
    return (first + (counts + 1) / 2.0)[inverse]


def spearman_rho(x, y) -> float:
    x, y = _check_pair(x, y)
    rx = midranks(x)
    ry = midranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    rho = float(np.sum(dx * dy)) / (sx * sy)
    return float(min(1.0, max(-1.0, rho)))
