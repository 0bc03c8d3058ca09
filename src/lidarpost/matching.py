"""Minimum-cost bipartite matching with a fixed tie-break, shared by the
tracker's association and the CLEAR-MOT metric (both on 1 - IoU costs).

:func:`hungarian` solves once with ``linear_sum_assignment`` and then breaks
ties without solving again:

1. The matrix is padded to a square with zero-cost dummy columns (or rows),
   so every matching is a perfect one. A dummy column's index is larger than
   any real column's, so a row left unassigned sorts after every column.
2. Column potentials make every reduced cost ``c[i, k] - u[i] - p[k]``
   non-negative and those of the solution zero. They are shortest-path
   distances in the column-exchange graph, whose edge ``j -> k`` costs
   ``c[m(j), k] - c[m(j), j]`` for the row ``m(j)`` on column ``j``
   (Bellman-Ford on dense arrays). A matching then costs more than the
   best by exactly the sum of its reduced costs.
3. Rows are fixed in order. For row ``r`` on column ``t``, one reverse
   shortest-path sweep over the rows not yet fixed gives, for each column
   ``j``, the least reduced cost ``D[j]`` of moving rows along an
   alternating path so that column ``j`` is freed and ``t`` is taken. Row
   ``r`` takes the smallest column ``c`` with ``rc[r, c] + D[c]`` within the
   budget still unspent, and the path rotates onto it.

The budget is the tolerance ``1e-9 * max(1, |best|)`` on the total, counted
across all rows: each rotation spends ``rc[r, c] + D[c]``, and only edges and
paths within what remains are searched. When a rotation spends budget on the
path, the potentials of the unfixed rows are shifted by ``min(D, D[c])`` so
that the new matching's edges are again zero and every reduced cost stays
non-negative, which keeps the sweep free of negative edges.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _reduced_costs(
    cost: np.ndarray, col_of_row: np.ndarray, row_of_col: np.ndarray
) -> np.ndarray:
    """Non-negative reduced costs of a square matrix for an optimal
    permutation, zero on the permutation's own edges."""
    n = len(col_of_row)
    held = cost[row_of_col, np.arange(n)]
    exchange = cost[row_of_col] - held[:, None]
    potential = np.zeros(n)
    changed = np.arange(n)
    # An optimal permutation leaves no negative cycle, so n rounds suffice;
    # the cap only guards against one made of rounding error.
    for _ in range(n):
        via = (potential[changed, None] + exchange[changed]).min(axis=0)
        better = via < potential
        if not better.any():
            break
        potential = np.minimum(potential, via)
        changed = np.flatnonzero(better)
    rc = cost - (cost[np.arange(n), col_of_row] - potential[col_of_row])[:, None] - potential
    rc[np.arange(n), col_of_row] = 0.0
    return np.maximum(rc, 0.0, out=rc)


def hungarian(cost) -> List[Tuple[int, int]]:
    """Minimum-cost matching of min(rows, cols) pairs.

    Among all optimal matchings, returns the one whose per-row assignment
    vector is lexicographically smallest, with unassigned rows sorting after
    every column index. A matching counts as optimal when its total is within
    1e-9 * max(1, |best total|) of the best. Result pairs are sorted by row.

    Raises:
        ValueError: if the matrix is not 2-D or contains non-finite entries.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix entries must be finite")
    from scipy.optimize import linear_sum_assignment  # slow to load: only when solving
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = cost
    _, col_of_row = linear_sum_assignment(square)
    best_total = float(square[np.arange(n), col_of_row].sum())
    budget = 1e-9 * max(1.0, abs(best_total))

    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[col_of_row] = np.arange(n)
    rc = _reduced_costs(square, col_of_row, row_of_col)
    for r in range(n_rows):
        t = col_of_row[r]
        # Columns below t that row r could take are the only ones to search.
        open_cols = row_of_col[:t] > r
        if not (open_cols & (rc[r, :t] <= budget)).any():
            continue
        dist, toward = _paths_to(rc, row_of_col, r, t, budget)
        # Columns of earlier rows are at infinite distance.
        fits = rc[r, :t] + dist[:t] <= budget
        if not fits.any():
            continue
        c = int(np.argmax(fits))
        budget -= float(rc[r, c] + dist[c])
        if dist[c] > 0.0:
            # Shift the potentials of the later rows and of every column by
            # the path lengths capped at dist[c]: reduced costs stay
            # non-negative and the path's edges become zero.
            shift = np.minimum(dist, dist[c])
            later = rc[r + 1:]
            later += shift - shift[col_of_row[r + 1:]][:, None]
            np.maximum(later, 0.0, out=later)
        # Rotate: r takes c, each row on the path takes the next column,
        # and the last one takes t.
        row, col = r, c
        while True:
            holder = row_of_col[col]
            col_of_row[row] = col
            row_of_col[col] = row
            if col == t:
                break
            row, col = holder, toward[col]
        if dist[c] > 0.0:
            rc[np.arange(r + 1, n), col_of_row[r + 1:]] = 0.0
    return [(r, int(c)) for r, c in enumerate(col_of_row[:n_rows]) if c < n_cols]


def _paths_to(
    rc: np.ndarray, row_of_col: np.ndarray, r: int, t: int, budget: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Least reduced cost, within budget, of freeing each column for row r.

    ``dist[j]`` is the cheapest way to move the rows after r so that column
    j is freed and column t, held by r, is taken; ``toward[j]`` is the
    column that j's row moves to on that path. Columns of rows before r
    stay where they are. Infinite where no path fits the budget.
    """
    n = len(row_of_col)
    dist = np.full(n, np.inf)
    toward = np.full(n, -1, dtype=np.intp)
    dist[t] = 0.0
    movable = np.flatnonzero(row_of_col > r)
    movers = row_of_col[movable]
    frontier = np.array([t])
    # Reduced costs are non-negative, so this label-correcting sweep ends.
    while frontier.size and movable.size:
        via = rc[np.ix_(movers, frontier)] + dist[frontier]
        pick = via.argmin(axis=1)
        best = np.take_along_axis(via, pick[:, None], axis=1)[:, 0]
        better = (best < dist[movable]) & (best <= budget)
        improved = movable[better]
        dist[improved] = best[better]
        toward[improved] = frontier[pick[better]]
        frontier = improved
    return dist, toward
