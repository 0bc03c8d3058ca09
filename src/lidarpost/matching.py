"""Minimum-cost bipartite matching with a fixed tie-break, shared by the
tracker's association and the CLEAR-MOT metric (both on 1 - IoU costs)."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment


def _subproblem_cost(cost: np.ndarray, rows: List[int], cols: List[int]) -> float:
    if not rows or not cols:
        return 0.0
    sub = cost[np.ix_(rows, cols)]
    r, c = linear_sum_assignment(sub)
    return float(sub[r, c].sum())


def hungarian(cost) -> List[Tuple[int, int]]:
    """Minimum-cost matching of min(rows, cols) pairs.

    Among all optimal matchings, returns the one whose per-row assignment
    vector is lexicographically smallest, with unassigned rows sorting after
    every column index. Result pairs are sorted by row.

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
    n_rows, n_cols = cost.shape
    needed = min(n_rows, n_cols)
    row_ind, col_ind = linear_sum_assignment(cost)
    best_total = float(cost[row_ind, col_ind].sum())
    tol = 1e-9 * max(1.0, abs(best_total))

    # Fix rows in order, taking the smallest column that still completes an
    # optimal matching; skipping the row is the last resort.
    result: List[Tuple[int, int]] = []
    avail = list(range(n_cols))
    fixed_cost = 0.0
    for r in range(n_rows):
        rows_after = list(range(r + 1, n_rows))
        chosen: Optional[int] = None
        for c in avail:
            rest = [x for x in avail if x != c]
            if len(result) + 1 + min(len(rows_after), len(rest)) != needed:
                continue
            total = fixed_cost + cost[r, c] + _subproblem_cost(cost, rows_after, rest)
            if abs(total - best_total) <= tol:
                chosen = c
                break
        if chosen is None:
            # Row stays unassigned; only possible when rows outnumber columns.
            continue
        result.append((r, chosen))
        avail.remove(chosen)
        fixed_cost += float(cost[r, chosen])
    return result
