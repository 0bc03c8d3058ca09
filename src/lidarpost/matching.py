"""Minimum-cost bipartite matching with a fixed tie-break, shared by the
tracker's association and the CLEAR-MOT metric (both on 1 - IoU costs).

:func:`hungarian` solves once, per overlap component, and then breaks ties
without solving again:

1. The matrix is padded to a square with zero-cost dummy columns (or rows),
   so every matching is a perfect one. A dummy column's index is larger than
   any real column's, so a row left unassigned sorts after every column.
2. With ``M`` the largest entry, every perfect matching of the square costs
   ``min(rows, cols) * M`` less the sum of ``M - c`` over its real pairs, as
   a dummy pair costs 0. So a matching is optimal exactly when its pairs
   below ``M`` form a maximum-weight matching of the edges ``c < M``,
   weighted ``M - c``, and such a matching is one per connected component.
   An edge alone in its component is matched, all in one array step; nearly
   every component of a tracker's matrix is such a pair. The other
   components are found by a breadth-first traversal and each is solved
   exactly in plain Python, by a primal-dual search for augmenting paths.
   Rows and columns left over take the unused columns and rows in index
   order. A matrix with a component of more than ``_SMALL`` rows and
   columns is solved whole by SciPy's ``linear_sum_assignment`` instead,
   and only then is SciPy loaded. The limit is where SciPy's solve, once
   loaded, becomes the faster of the two on a tracker-sized matrix; a
   tracker's components stay below it outside dense crowds.
3. Reduced costs ``c[i, k] - u[i] - p[k]`` are non-negative and those of the
   solution zero, so a matching costs more than the best by exactly the sum
   of its reduced costs. A real row's potential is ``M - y`` and a real
   column's ``-z``, for the component solver's duals ``y + z >= M - c``,
   equal on each matched pair and zero where unmatched (``y = z`` on an
   edge alone); a dummy row's is 0 and a dummy column's ``-M``. After
   SciPy's solve the potentials are shortest-path distances in the
   column-exchange graph, whose edge ``j -> k`` costs ``c[m(j), k] -
   c[m(j), j]`` for the row ``m(j)`` on column ``j`` (Bellman-Ford on dense
   arrays).
4. Rows are fixed in order. For row ``r`` on column ``t``, one reverse
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
  after a shift. The rows that pass are found by one comparison, and those
  after a row are found again whenever it rotates, so the loop visits only
  them.
- Rows with equal real costs take real columns in increasing order, and
  once one of them is left unassigned so is every later one: swapping two
  of them changes no total. A row searches only above the column that the
  last row with its costs took.

A row that passes them sweeps only if a later row holds a column in its
range that the row itself reaches within budget.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def _reduced_costs(
    cost: np.ndarray, col_of_row: np.ndarray, row_of_col: np.ndarray
) -> np.ndarray:
    """Non-negative reduced costs of a square matrix for an optimal
    permutation, zero on the permutation's own edges."""
    n = len(col_of_row)
    held = cost[row_of_col, np.arange(n)]
    exchange = cost[row_of_col]
    exchange -= held[:, None]
    # From zero potentials the first round is the least exchange into each
    # column. An optimal permutation leaves no negative cycle, so n rounds
    # suffice; the cap only guards against one made of rounding error.
    via = exchange.min(axis=0)
    potential = np.zeros(n)
    for _ in range(n):
        better = via < potential
        if not better.any():
            break
        potential = np.minimum(potential, via)
        changed = np.flatnonzero(better)
        via = (potential[changed, None] + exchange[changed]).min(axis=0)
    rc = cost - (cost[np.arange(n), col_of_row] - potential[col_of_row])[:, None]
    rc -= potential
    rc[np.arange(n), col_of_row] = 0.0
    return np.maximum(rc, 0.0, out=rc)


def hungarian(cost) -> List[Tuple[int, int]]:
    """Minimum-cost matching of min(rows, cols) pairs.

    Among all optimal matchings, returns the one whose per-row assignment
    vector is lexicographically smallest, with unassigned rows sorting after
    every column index. A matching counts as optimal when its total is within
    1e-9 * max(1, |best total|) of the best. Result pairs are sorted by row.

    Raises:
        ValueError: if the matrix is not 2-D, contains non-finite entries, or
            spans too wide a range: ``n * (max(hi, 0) - min(lo, 0))`` is not
            finite, for n its larger side and hi, lo its largest and smallest
            entries.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    hi, lo = float(cost.max()), float(cost.min())
    if not -np.inf < lo <= hi < np.inf:  # a NaN fails every comparison
        raise ValueError("cost matrix entries must be finite")
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    # Every total, potential, reduced cost and path length of the solve is a
    # sum of at most n differences of entries, a total's taken from zero, so
    # none overflows while n times the span of the entries and zero is finite.
    if not n * (max(hi, 0.0) - min(lo, 0.0)) < np.inf:
        raise ValueError("cost matrix entries span too wide a range to solve")
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = cost
    col_of_row, rc = _solve(cost, square)
    best_total = float(square[np.arange(n), col_of_row].sum())
    budget = 1e-9 * max(1.0, abs(best_total))

    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[col_of_row] = np.arange(n)
    fixer = _RowFixer(rc, col_of_row, row_of_col, n_rows, n_cols, budget)
    # A row's real costs -> the column the last row with those costs took
    # (n_cols if none); rows with equal costs take increasing columns.
    floor: Dict[bytes, int] = {}
    # Only rows that pass the first_tight test are visited, and the set of
    # later ones is found again whenever a rotation changes the state.
    rows = fixer.movable(0)
    k = 0
    while k < len(rows):
        r = rows[k]
        k += 1
        t = int(col_of_row[r])
        lim = min(t, n_cols)
        key = cost[r].tobytes()
        lo = floor.get(key, -1) + 1
        if lo < lim and fixer.fix(r, t, lo, lim):
            rows, k = fixer.movable(r + 1), 0
        floor[key] = min(int(col_of_row[r]), n_cols)
    assigned = np.flatnonzero(col_of_row[:n_rows] < n_cols)
    return list(zip(assigned.tolist(), col_of_row[assigned].tolist()))


# A matrix with a component of more rows and columns than this goes whole to
# SciPy. With SciPy loaded, a 108 x 90 tracker matrix with one component of
# about ten nodes is solved as fast either way, and past that SciPy is faster.
_SMALL = 10


def _solve(cost: np.ndarray, square: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """An optimal permutation of the padded square and its non-negative
    reduced costs, zero on the permutation."""
    n_rows, n_cols = cost.shape
    n = len(square)
    top = cost.max()
    edges = np.flatnonzero(cost < top)
    # A small component of a rows and b columns has fewer than
    # _SMALL * min(a, b) edges, so a matrix with _SMALL * min(n_rows, n_cols)
    # edges has a large one. So has a matrix with an edge whose row's columns
    # and column's rows, all in its component, number more than _SMALL.
    if edges.size >= _SMALL * min(n_rows, n_cols):
        return _solve_whole(square)
    r_e, c_e = np.divmod(edges, n_cols)
    row_deg = np.bincount(r_e, minlength=n_rows)[r_e]
    col_deg = np.bincount(c_e, minlength=n_cols)[c_e]
    if edges.size and (row_deg + col_deg).max() > _SMALL:
        return _solve_whole(square)
    # Duals y of the rows and z of the columns for the weights top - cost:
    # y[i] + z[k] >= top - cost[i, k], equal on each matched pair, zero where
    # unmatched. An edge alone in its component is matched, and half its
    # weight is each end's dual.
    y, z = np.zeros(n_rows), np.zeros(n_cols)
    col_of_row = np.full(n, -1, dtype=np.intp)
    alone = (row_deg == 1) & (col_deg == 1)
    rows, cols = r_e[alone], c_e[alone]
    col_of_row[rows] = cols
    y[rows] = z[cols] = 0.5 * (top - cost[rows, cols])
    if not _match_components(r_e[~alone], c_e[~alone], cost, top, col_of_row, y, z):
        return _solve_whole(square)
    # Rows left unmatched, dummy rows included, take the unused columns.
    used = np.zeros(n, dtype=bool)
    used[col_of_row[col_of_row >= 0]] = True
    col_of_row[col_of_row < 0] = np.flatnonzero(~used)
    # In the padded square a row's dual is top - y, a column's -z, a dummy
    # row's 0 and a dummy column's -top.
    row_dual = np.zeros(n)
    row_dual[:n_rows] = top - y
    col_dual = np.full(n, -top)
    col_dual[:n_cols] = -z
    rc = square - row_dual[:, None]
    rc -= col_dual
    rc[np.arange(n), col_of_row] = 0.0
    return col_of_row, np.maximum(rc, 0.0, out=rc)


def _solve_whole(square: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """_solve for a matrix with a large component, by one dense solve."""
    from scipy.optimize import linear_sum_assignment  # slow to load: only here
    n = len(square)
    _, col_of_row = linear_sum_assignment(square)
    row_of_col = np.empty(n, dtype=np.intp)
    row_of_col[col_of_row] = np.arange(n)
    return col_of_row, _reduced_costs(square, col_of_row, row_of_col)


def _match_components(r_e: np.ndarray, c_e: np.ndarray, cost: np.ndarray, top: float,
                      col_of_row: np.ndarray, y: np.ndarray, z: np.ndarray) -> bool:
    """Match the edges r_e[e] - c_e[e], weighted top - cost, one connected
    component at a time, into col_of_row and the duals y and z; False, with
    nothing written, if a component has more than _SMALL rows and columns."""
    n_rows = cost.shape[0]
    # Columns are numbered after the rows.
    adjacent: Dict[int, List[int]] = {}
    for a, b in zip(r_e.tolist(), (c_e + n_rows).tolist()):
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    components: List[List[int]] = []
    seen = set()
    for root in adjacent:
        if root in seen:
            continue
        seen.add(root)
        component = [root]
        for node in component:  # grows while it is read: breadth first
            for other in adjacent[node]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
            if len(component) > _SMALL:
                return False
        components.append(sorted(component))
    for component in components:
        rows = [v for v in component if v < n_rows]
        cols = [v - n_rows for v in component if v >= n_rows]
        col_of, y[rows], z[cols] = _max_weight_matching(
            [[top - cost.item(r, c) for c in cols] for r in rows])
        col_of_row[rows] = [cols[j] if j >= 0 else -1 for j in col_of]
    return True


def _max_weight_matching(w: List[List[float]]) -> Tuple[List[int], List[float], List[float]]:
    """A maximum-weight matching of a small non-negative weight matrix, as
    the column of each row (-1 if none, and no pair of zero weight), with
    duals y, z: y[i] + z[j] >= w[i][j], equal on each matched pair, zero at
    an unmatched row or column.

    Each row in turn grows a tree of edges tight under the duals, until it
    reaches a free column or a row of the tree runs out of dual, which then
    gives up its column.
    """
    n_rows, n_cols = len(w), len(w[0])
    y = [max(row) for row in w]
    z = [0.0] * n_cols
    col_of = [-1] * n_rows
    row_of = [-1] * n_cols
    for root in range(n_rows):
        slack = [y[root] + z[j] - w[root][j] for j in range(n_cols)]
        via = [root] * n_cols
        tree_rows, tree_cols, open_cols = [root], [], list(range(n_cols))
        while True:
            i = min(tree_rows, key=y.__getitem__)
            j = min(open_cols, key=slack.__getitem__, default=-1)
            release = j < 0 or y[i] <= slack[j]
            delta = y[i] if release else slack[j]
            for k in tree_rows:
                y[k] -= delta
            for k in tree_cols:
                z[k] += delta
            for k in open_cols:
                slack[k] -= delta
            if release:
                if i == root:
                    break
                j, col_of[i] = col_of[i], -1
            elif row_of[j] >= 0:
                open_cols.remove(j)
                tree_cols.append(j)
                i = row_of[j]
                tree_rows.append(i)
                for k in open_cols:
                    s = y[i] + z[k] - w[i][k]
                    if s < slack[k]:
                        slack[k], via[k] = s, i
                continue
            # Column j is free: flip the tree path from it back to the root.
            while True:
                i = via[j]
                row_of[j] = i
                col_of[i], j = j, col_of[i]
                if i == root:
                    break
            break
    return col_of, y, z


class _RowFixer:
    """The tie-break's state while rows are fixed in order: reduced costs,
    the matching and the budget left."""

    def __init__(self, rc, col_of_row, row_of_col, n_rows, n_cols, budget):
        self.rc = rc
        self.col_of_row = col_of_row
        self.row_of_col = row_of_col
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.budget = budget
        self._find_first_tight()

    def _find_first_tight(self) -> None:
        # The smallest real column within budget per row, n_cols if none. The
        # budget only shrinks, so it stays a lower bound until a shift.
        tight = self.rc[:self.n_rows, :self.n_cols] <= self.budget
        self.first_tight = np.where(tight.any(axis=1), tight.argmax(axis=1), self.n_cols)

    def movable(self, start: int) -> List[int]:
        """The rows from start on whose first_tight column lies below their
        own real column: the only rows that can move."""
        lim = np.minimum(self.col_of_row[start:self.n_rows], self.n_cols)
        return (start + np.flatnonzero(self.first_tight[start:] < lim)).tolist()

    def fix(self, r: int, t: int, lo: int, lim: int) -> bool:
        """Move row r, on column t, to the smallest column in [lo, lim) it
        can take within the budget, if there is one; whether it moved."""
        rc, row_of_col = self.rc, self.row_of_col
        if not ((row_of_col[lo:lim] > r) & (rc[r, lo:lim] <= self.budget)).any():
            return False
        dist, toward = _paths_to(rc, row_of_col, r, t, self.budget)
        fits = rc[r, lo:lim] + dist[lo:lim] <= self.budget
        c = lo + int(fits.argmax())
        if not fits[c - lo]:
            return False
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
            self._find_first_tight()
        return True

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
