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
   ``r`` takes the smallest real column ``c`` below ``t`` with
   ``rc[r, c] + D[c]`` within the budget still unspent, and the path
   rotates onto it.

The budget is the tolerance ``1e-9 * max(1, |best|)`` on the total, counted
across all rows: each rotation spends ``rc[r, c] + D[c]``, and only edges and
paths within what remains are searched. When a rotation spends budget on the
path, the potentials of the unfixed rows are shifted by ``min(D, D[c])`` so
that the new matching's edges are again zero and every reduced cost stays
non-negative, which keeps the sweep free of negative edges.

Most rows need no sweep, and each skip below leaves the result as it is:

- Dummy columns are alike and never reported, so a row on one searches
  real columns only; moving it to another dummy column would cost nothing
  and change no pair.
- A row whose smallest real column within budget is not below its own
  cannot move. That column is found for all rows in one array operation; as
  the budget only shrinks it stays a lower bound, and it is found again
  after a shift.
- Rows with equal real costs take real columns in increasing order, and
  once one of them is left unassigned so is every later one: swapping two
  of them changes no total. A row searches only above the column that the
  last row with its costs took.
- A row on a dummy column starts from the last sweep toward a dummy column.
  Dummy columns are alike, and fixing rows only takes paths away, so that
  sweep's ``D`` is a lower bound checked against the budget it was made
  with: a column that fails it cannot be taken. If the smallest column that
  passes has a zero-cost path there whose rows still hold the same columns,
  no path is shorter, so the row rotates along it without a sweep. A shift
  of the potentials discards the kept sweep.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

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
    fixer = _RowFixer(_reduced_costs(square, col_of_row, row_of_col), col_of_row, row_of_col,
                      n_rows, n_cols, budget)
    # A row's real costs -> the column the last row with those costs took
    # (n_cols if none); rows with equal costs take increasing columns.
    floor: Dict[bytes, int] = {}
    for r in range(n_rows):
        t = int(col_of_row[r])
        lim = min(t, n_cols)
        if fixer.first_tight[r] >= lim:
            continue
        key = cost[r].tobytes()
        lo = floor.get(key, -1) + 1
        if lo < lim:
            fixer.fix(r, t, lo, lim)
        floor[key] = min(int(col_of_row[r]), n_cols)
    assigned = np.flatnonzero(col_of_row[:n_rows] < n_cols)
    return list(zip(assigned.tolist(), col_of_row[assigned].tolist()))


class _Reach(NamedTuple):
    """One sweep toward a dummy column: its distances, its paths, who held
    each column then, and the budget it was made with."""

    dist: np.ndarray
    toward: np.ndarray
    holders: np.ndarray
    budget: float


class _RowFixer:
    """The tie-break's state while rows are fixed in order: reduced costs,
    the matching, the budget left and the last sweep toward a dummy column."""

    def __init__(self, rc, col_of_row, row_of_col, n_rows, n_cols, budget):
        self.rc = rc
        self.col_of_row = col_of_row
        self.row_of_col = row_of_col
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.budget = budget
        self.reach: Optional[_Reach] = None
        self._find_first_tight()

    def _find_first_tight(self) -> None:
        # The smallest real column within budget per row, n_cols if none. The
        # budget only shrinks, so it stays a lower bound until a shift.
        tight = self.rc[:self.n_rows, :self.n_cols] <= self.budget
        self.first_tight = np.where(tight.any(axis=1), tight.argmax(axis=1), self.n_cols).tolist()

    def fix(self, r: int, t: int, lo: int, lim: int) -> None:
        """Move row r, on column t, to the smallest column in [lo, lim) it
        can take within the budget, if there is one."""
        rc, row_of_col = self.rc, self.row_of_col
        reach = self.reach if t >= self.n_cols else None
        if reach is None:
            bound = rc[r, lo:lim] <= self.budget
        else:
            bound = rc[r, lo:lim] + reach.dist[lo:lim] <= reach.budget
        candidates = (row_of_col[lo:lim] > r) & bound
        c = lo + int(candidates.argmax())
        if not candidates[c - lo]:
            return
        if reach is not None and reach.dist[c] == 0.0 and rc[r, c] <= self.budget:
            path = self._intact_path(reach, c, r)
            if path is not None:
                self.budget -= float(rc[r, c])
                self._rotate(r, path + [t])
                return
        dist, toward = _paths_to(rc, row_of_col, r, t, self.budget)
        if t >= self.n_cols:
            self.reach = _Reach(dist, toward, row_of_col.copy(), self.budget)
        fits = rc[r, lo:lim] + dist[lo:lim] <= self.budget
        c = lo + int(fits.argmax())
        if not fits[c - lo]:
            return
        self.budget -= float(rc[r, c] + dist[c])
        path = [c]
        while path[-1] != t:
            path.append(int(toward[path[-1]]))
        shifted = dist[c] > 0.0
        if shifted:
            # Shift the potentials of the later rows and of every column by
            # the path lengths capped at dist[c]: reduced costs stay
            # non-negative and the path's edges become zero.
            shift = np.minimum(dist, dist[c])
            later = rc[r + 1:]
            later += shift - shift[self.col_of_row[r + 1:]][:, None]
            np.maximum(later, 0.0, out=later)
        self._rotate(r, path)
        if shifted:
            rc[np.arange(r + 1, len(rc)), self.col_of_row[r + 1:]] = 0.0
            self.reach = None
            self._find_first_tight()

    def _intact_path(self, reach: _Reach, c: int, r: int) -> Optional[List[int]]:
        """The real columns of reach's zero path from c, if rows after r
        still hold each of them as they did then; None otherwise."""
        path = []
        while c < self.n_cols:
            holder = reach.holders[c]
            if holder <= r or self.row_of_col[c] != holder:
                return None
            path.append(c)
            c = int(reach.toward[c])
        return path

    def _rotate(self, r: int, path: List[int]) -> None:
        # r takes path[0], and the row on each column takes the next one.
        row = r
        for col in path:
            holder = self.row_of_col[col]
            self.col_of_row[row] = col
            self.row_of_col[col] = row
            row = holder


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
    reduced = rc[row_of_col[movable]]
    mover_dist = np.full(len(movable), np.inf)
    rows = np.arange(len(movable))
    frontier = np.array([t])
    # Reduced costs are non-negative, so this label-correcting sweep ends.
    while frontier.size and movable.size:
        via = reduced[:, frontier]
        via += dist[frontier]
        pick = via.argmin(axis=1)
        best = via[rows, pick]
        better = (best < mover_dist) & (best <= budget)
        mover_dist[better] = best[better]
        improved = movable[better]
        dist[improved] = best[better]
        toward[improved] = frontier[pick[better]]
        frontier = improved
    return dist, toward
