"""The single-solve tie-break of lidarpost.matching.hungarian against the
re-solving reference, the tie-break that sweeps for every row, and
exhaustive enumeration; and its solve per overlap component against
linear_sum_assignment."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from lidarpost import matching
from lidarpost.matching import _SMALL, _match_components, _max_weight_matching, _solve, hungarian
from oracles import brute_force_assignment, reference_hungarian, reference_sweep_hungarian

SHAPES = {"tall": (8, 5), "wide": (5, 8), "square": (8, 8)}


def _random_shape(rng, kind, limit=8):
    rows = int(rng.integers(1, limit + 1))
    cols = int(rng.integers(1, limit + 1))
    if kind == "tall":
        rows, cols = max(rows, cols), min(rows, cols)
    elif kind == "wide":
        rows, cols = min(rows, cols), max(rows, cols)
    else:
        cols = rows
    return rows, cols


def _one_minus_iou(rng, rows, cols, density):
    """Mostly exact 1.0 (no overlap) with a sparse set of lower costs."""
    cost = np.ones((rows, cols))
    overlap = rng.random((rows, cols)) < density
    cost[overlap] = 1.0 - rng.uniform(0.05, 0.95, int(overlap.sum()))
    return cost


def _fill_heavy(rng, rows, cols, density=0.03, near_ties=False):
    """A 1 - IoU matrix like the tracker's: exact 1.0 fill, sparse overlaps,
    several all-1.0 rows and columns, rows of the one other constant 0.5 and
    a few copies of other rows."""
    cost = _one_minus_iou(rng, rows, cols, density)
    cost[rng.choice(rows, size=max(1, rows // 8), replace=False)] = 1.0
    cost[:, rng.choice(cols, size=max(1, cols // 8), replace=False)] = 1.0
    cost[rng.choice(rows, size=max(1, rows // 10), replace=False)] = 0.5
    copies = rng.choice(rows, size=(2, max(1, rows // 10)))
    cost[copies[1]] = cost[copies[0]]
    if near_ties:
        cost += rng.integers(0, 3, size=(rows, cols)) * 3e-10
    return cost


def _tolerance(cost):
    r, c = linear_sum_assignment(cost)
    best = float(cost[r, c].sum())
    return best, 1e-9 * max(1.0, abs(best))


def test_a_cost_array_that_is_not_2d_is_refused():
    with pytest.raises(ValueError) as refused:
        hungarian(np.zeros((2, 2, 2)))
    assert str(refused.value) == "cost must be a 2-D matrix, got shape (2, 2, 2)"


def _hungarian_in_fresh_interpreter(matrices):
    """hungarian's pairs, or its ValueError's message, for each matrix, in a
    new interpreter that is stopped after 30 s: a solve that overflows can
    loop without end."""
    script = ("import json, sys\n"
              "from lidarpost.matching import hungarian\n"
              "for cost in json.loads(sys.argv[1]):\n"
              "    try:\n"
              "        print(json.dumps(hungarian(cost)))\n"
              "    except ValueError as error:\n"
              "        print(json.dumps(str(error)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(matching.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(matrices)], capture_output=True,
                         text=True, check=True, env=env, timeout=30)
    return [json.loads(line) for line in out.stdout.splitlines()]


SPAN_REFUSED = "cost matrix entries span too wide a range to solve"


def test_a_matrix_whose_solve_would_overflow_is_refused():
    """Finite entries whose differences, or whose sums of n differences,
    overflow: left to the solve, the first two never return, the third
    returns a pair without a column and the fourth a matching costing 3e308
    where one costs 2.8e308."""
    big = 8e307
    matrices = [[[1e308, -1e308], [-1e308, 1e308]],
                [[-big, -big, -big], [-big, 0.0, -big], [-big, -big, -big]],
                [[0.0, 0.0, big, 0.0], [-big, -big, -big, big], [0.0, big, big, -big],
                 [-big, -big, big, big]],
                [[1.5e308, 1.4e308], [1.4e308, 1.5e308]]]
    assert _hungarian_in_fresh_interpreter(matrices) == [SPAN_REFUSED] * 4


def test_matrices_just_inside_the_span_bound_are_solved_as_unscaled():
    """Scaling by a power of two is exact, so a tie-heavy integer matrix
    scaled until n * span is within a factor of two of the largest float
    has the pairs of the unscaled matrix; just past that it is refused."""
    rng = np.random.default_rng(25)
    inside, outside, expected = [], [], []
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
        cost = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        n = max(rows, cols)
        span = max(cost.max(), 0.0) - min(cost.min(), 0.0)
        if span == 0.0 or n == 1:  # a 1 x 1 matrix past the bound has an infinite entry
            continue
        scale = 2.0 ** (np.frexp(np.finfo(float).max / (n * span))[1] - 1)
        inside.append((cost * scale).tolist())
        outside.append((cost * 2.0 * scale).tolist())
        expected.append([list(pair) for pair in hungarian(cost)])
    assert len(inside) > 40 and np.isfinite(np.concatenate(outside, axis=None)).all()
    assert _hungarian_in_fresh_interpreter(inside) == expected
    assert _hungarian_in_fresh_interpreter(outside) == [SPAN_REFUSED] * len(outside)


class TestAgainstReference:
    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_tie_heavy_integer_matrices(self, kind):
        rng = np.random.default_rng(sorted(SHAPES).index(kind))
        for trial in range(150):
            rows, cols = _random_shape(rng, kind)
            cost = rng.integers(0, 2 + trial % 3, size=(rows, cols)).astype(float)
            assert hungarian(cost) == reference_hungarian(cost), cost.tolist()

    @pytest.mark.parametrize("kind", sorted(SHAPES))
    def test_small_cases_match_exhaustive_enumeration(self, kind):
        rng = np.random.default_rng(10 + sorted(SHAPES).index(kind))
        for _ in range(80):
            rows, cols = _random_shape(rng, kind, limit=5)
            cost = rng.integers(0, 3, size=(rows, cols)).astype(float)
            pairs, _ = brute_force_assignment(cost)
            assert hungarian(cost) == pairs, cost.tolist()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (3, 7), (7, 3), (8, 8)])
    @pytest.mark.parametrize("value", [0.0, 1.0, 2.5])
    def test_uniform_matrices(self, shape, value):
        cost = np.full(shape, value)
        expected = [(i, i) for i in range(min(shape))]
        assert hungarian(cost) == expected
        assert reference_hungarian(cost) == expected

    @pytest.mark.parametrize("shape", [(8, 8), (8, 5), (5, 8), (30, 30), (80, 80),
                                       (80, 45), (45, 80)])
    def test_one_minus_iou_matrices(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for density in (0.02, 0.1):
            cost = _one_minus_iou(rng, *shape, density)
            assert hungarian(cost) == reference_hungarian(cost)

    def test_one_minus_iou_small_cases_match_exhaustive_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rows, cols = (int(v) for v in rng.integers(1, 6, size=2))
            cost = _one_minus_iou(rng, rows, cols, 0.3)
            pairs, _ = brute_force_assignment(cost)
            assert hungarian(cost) == pairs, cost.tolist()

    def test_near_ties_share_one_budget_across_rows(self):
        """Offsets of 3e-10 are each inside the 1e-9 tolerance, but a
        matching that takes several of them is not; the choice of every row
        must count what earlier rows spent."""
        rng = np.random.default_rng(22)
        for trial in range(300):
            rows, cols = _random_shape(rng, ("tall", "wide", "square")[trial % 3])
            cost = rng.integers(0, 2, size=(rows, cols)).astype(float)
            cost += rng.integers(0, 3, size=(rows, cols)) * 3e-10
            assert hungarian(cost) == reference_hungarian(cost), cost.tolist()

    def test_near_ties_after_a_rotation_that_spends_budget(self):
        """Row 2's move to column 1 spends budget on its path and shifts the
        potentials; the sweep kept from row 0 holds the old reduced costs and
        must not settle the rows on dummy columns after row 2."""
        a, b, c = 3e-10, 6e-10, 1.0000000003
        cost = [[a, 1.0000000006, a, c, 1.0],
                [0.0, c, 0.0, 1.0, c],
                [1.0000000006, b, 1.0000000006, 0.0, a],
                [b, c, a, 1.0, b],
                [b, 1.0000000006, b, a, 1.0000000006],
                [a, 0.0, 0.0, b, 1.0000000006],
                [1.0, b, 1.0000000006, 0.0, a]]
        expected = [(0, 0), (1, 2), (2, 1), (3, 4), (6, 3)]
        assert hungarian(cost) == reference_hungarian(cost) == expected

    def test_kept_sweep_is_held_to_the_budget_it_was_made_with(self):
        """Row 2 spends 9e-10 after the sweep kept from row 0. Row 5, on a
        dummy column, can still take column 1: a kept distance may exceed
        the present one by what was spent since it was made."""
        a, b, c, d = 3e-10, 6e-10, 1.0000000003, 1.0000000006
        cost = [[1.0, d, a], [c, d, d], [b, 0.0, b], [a, d, d], [a, c, c],
                [0.0, a, a], [0.0, a, c]]
        expected = [(0, 2), (2, 0), (5, 1)]
        assert hungarian(cost) == reference_hungarian(cost) == expected

    def test_two_rows_that_overlap_only_the_last_column(self):
        """The lexicographic rule counts fill columns: row 0 takes column 0
        so that row 1 can take the one overlap."""
        cost = [[1, 1, 1, 1, 1, 0.5], [1, 1, 1, 1, 1, 0.5]]
        assert hungarian(cost) == reference_hungarian(cost) == [(0, 0), (1, 5)]

    @pytest.mark.parametrize("shape", [(30, 22), (22, 30), (45, 36), (36, 45), (60, 50)])
    @pytest.mark.parametrize("near_ties", [False, True])
    def test_fill_heavy_one_minus_iou_matrices(self, shape, near_ties):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + near_ties)
        for _ in range(2):
            cost = _fill_heavy(rng, *shape, near_ties=near_ties)
            assert hungarian(cost) == reference_hungarian(cost), cost.tolist()

    def test_dense_random_150(self):
        cost = np.random.default_rng(23).uniform(0.0, 1.0, size=(150, 150))
        start = time.perf_counter()
        pairs = hungarian(cost)
        elapsed = time.perf_counter() - start
        assert pairs == reference_hungarian(cost)
        # The re-solving reference takes seconds here; one solve takes
        # milliseconds. The bound only catches a return to re-solving.
        assert elapsed < 0.5


class TestAgainstSweepingReference:
    """Benchmark-sized matrices, where re-solving is too slow, against the
    tie-break that sweeps for every row."""

    @pytest.mark.parametrize("shape", [(108, 89), (102, 91), (88, 89), (90, 88), (26, 20),
                                       (20, 26), (47, 36)])
    @pytest.mark.parametrize("near_ties", [False, True])
    def test_fill_heavy_one_minus_iou_matrices(self, shape, near_ties):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1] + near_ties)
        for density in (0.01, 0.03, 0.1):
            cost = _fill_heavy(rng, *shape, density, near_ties)
            assert hungarian(cost) == reference_sweep_hungarian(cost)

    def test_tie_heavy_integer_matrices(self):
        rng = np.random.default_rng(24)
        for trial in range(60):
            rows, cols = (int(v) for v in rng.integers(20, 60, size=2))
            cost = rng.integers(0, 2 + trial % 3, size=(rows, cols)).astype(float)
            if trial % 2:
                cost += rng.integers(0, 3, size=(rows, cols)) * 3e-10
            assert hungarian(cost) == reference_sweep_hungarian(cost)


def _matrices():
    ties = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.sampled_from([0.0, 0.5, 1.0]))
    floats = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    elements=st.floats(-10.0, 10.0, allow_nan=False))
    return ties | floats


@st.composite
def _fill_heavy_matrices(draw):
    """1 - IoU shaped matrices: 1.0 fill with a few overlap values, all-1.0
    and all-0.5 rows, all-1.0 columns, and near-ties of 3e-10 steps."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    cost = draw(arrays(np.float64, shape,
                       elements=st.sampled_from([1.0, 1.0, 1.0, 0.75, 0.5, 0.25])))
    for r in draw(st.lists(st.integers(0, shape[0] - 1), max_size=3)):
        cost[r] = draw(st.sampled_from([1.0, 0.5]))
    for c in draw(st.lists(st.integers(0, shape[1] - 1), max_size=2)):
        cost[:, c] = 1.0
    steps = draw(arrays(np.int64, shape, elements=st.integers(0, 2)))
    return cost + steps * 3e-10


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_property_complete_optimal_and_equal_to_the_reference(cost):
    pairs = hungarian(cost)
    rows, cols = cost.shape
    assert len(pairs) == min(rows, cols)
    assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
    best, tol = _tolerance(cost)
    assert abs(sum(cost[r, c] for r, c in pairs) - best) <= tol
    assert pairs == reference_hungarian(cost)


@settings(max_examples=300, deadline=None)
@given(_fill_heavy_matrices())
def test_property_fill_heavy_matrices_equal_the_references(cost):
    assert hungarian(cost) == reference_hungarian(cost) == reference_sweep_hungarian(cost)


# IoU values of a block's entries: 0.0 leaves an entry at the 1.0 fill.
IOUS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 0.9])


def _path_block(rows, cols):
    """Overlaps (i, i) and (i + 1, i): one component of rows + cols nodes in
    a path, no node with more than two overlaps (cols is rows or rows - 1)."""
    overlap = np.zeros((rows, cols), dtype=bool)
    overlap[np.arange(cols), np.arange(cols)] = True
    overlap[np.arange(1, min(rows, cols + 1)), np.arange(min(rows - 1, cols))] = True
    return overlap


@st.composite
def _blocks(draw, max_side, big_nodes=None):
    """A shuffled block-diagonal 1 - IoU matrix: blocks of overlaps with
    equal IoUs, 1 x n and n x 1 blocks among them, 1.0 between blocks, all-1.0
    rows and columns, and near-ties of 3e-10 steps on the overlaps, or now
    and then on every entry. With big_nodes, one more block is a single
    component of that many rows and columns: either every entry overlaps, or
    the overlaps form a path, whose nodes have too few overlaps to show its
    size before it is labelled."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4))
    blocks = []
    for rows, cols in shapes:
        blocks.append(1.0 - draw(arrays(np.float64, (rows, cols), elements=IOUS)))
    if big_nodes is not None:
        if draw(st.booleans()):
            rows = draw(st.integers(2, big_nodes - 2))
            overlap = np.ones((rows, big_nodes - rows), dtype=bool)
        else:
            overlap = _path_block((big_nodes + 1) // 2, big_nodes // 2)
        ious = draw(arrays(np.float64, overlap.shape, elements=st.sampled_from([0.25, 0.5, 0.75])))
        blocks.append(1.0 - ious * overlap)
    extra_rows, extra_cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n_rows = sum(b.shape[0] for b in blocks) + extra_rows
    n_cols = sum(b.shape[1] for b in blocks) + extra_cols
    assume(0 < min(n_rows, n_cols) and max(n_rows, n_cols) <= max_side)
    cost = np.ones((n_rows, n_cols))
    r = c = 0
    for b in blocks:
        cost[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    steps = draw(arrays(np.int64, cost.shape, elements=st.integers(0, 2))) * 3e-10
    if draw(st.integers(0, 3)):
        cost -= steps * (cost < 1.0)
    else:  # the fill too: every entry is then below the largest
        cost += steps
    return cost[draw(st.permutations(range(n_rows)))][:, draw(st.permutations(range(n_cols)))]


@settings(max_examples=300, deadline=None)
@given(_blocks(max_side=9))
@example(np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0, 1.0, 0.5]]))
def test_property_block_diagonal_matrices_equal_the_reference(cost):
    assert hungarian(cost) == reference_hungarian(cost)


@settings(max_examples=100, deadline=None)
@given(_blocks(max_side=_SMALL + 12, big_nodes=_SMALL + 1) | _blocks(
    max_side=_SMALL + 12, big_nodes=_SMALL))
def test_property_block_diagonal_matrices_at_the_component_limit(cost):
    """One component at the limit is solved in plain Python, one above it
    by linear_sum_assignment; both equal the re-solving reference."""
    assert hungarian(cost) == reference_hungarian(cost)


@pytest.mark.parametrize("shape", ["dense", "path"])
@pytest.mark.parametrize("nodes, whole", [(_SMALL, False), (_SMALL + 1, True)])
def test_only_a_component_above_the_limit_goes_to_scipy(monkeypatch, shape, nodes, whole):
    """A dense component shows its size by its overlap counts, a path only
    once it is labelled."""
    solved = []
    monkeypatch.setattr(matching, "_solve_whole",
                        lambda square, _f=matching._solve_whole: solved.append(1) or _f(square))
    rows = (nodes + 1) // 2
    overlap = np.ones((rows, nodes - rows), dtype=bool) if shape == "dense" else _path_block(
        rows, nodes - rows)
    cost = np.full((rows + 3, nodes - rows + 2), 1.0)
    cost[:rows, :nodes - rows] = np.where(
        overlap, np.random.default_rng(nodes).uniform(0.1, 0.9, overlap.shape), 1.0)
    cost[rows + 1, -1] = 0.5
    assert hungarian(cost) == reference_sweep_hungarian(cost)
    assert bool(solved) is whole


def test_a_component_above_the_limit_leaves_the_solution_unwritten():
    """_solve falls back to linear_sum_assignment on the whole matrix after
    _match_components refuses, so the refusal must write nothing, not even
    the component solved before the large one is found. The large one is a
    path, whose edge count and overlap counts pass _solve's own checks."""
    rows = (_SMALL + 2) // 2
    cost = np.ones((rows + 2, _SMALL + 1 - rows + 2))
    cost[:2, :2] = [[0.25, 0.5], [0.75, 0.5]]
    cost[2:, 2:] = np.where(_path_block(rows, _SMALL + 1 - rows), 0.5, 1.0)
    r_e, c_e = np.divmod(np.flatnonzero(cost < 1.0), cost.shape[1])
    assert r_e.size < _SMALL * min(cost.shape)
    assert (np.bincount(r_e)[r_e] + np.bincount(c_e)[c_e]).max() <= _SMALL
    col_of_row = np.full(max(cost.shape), -7, dtype=np.intp)
    y, z = np.full(cost.shape[0], 0.125), np.full(cost.shape[1], -0.375)
    given = col_of_row.tobytes(), y.tobytes(), z.tobytes()
    assert not _match_components(r_e, c_e, cost, 1.0, col_of_row, y, z)
    assert (col_of_row.tobytes(), y.tobytes(), z.tobytes()) == given
    # Without the path, the same call solves the first component.
    first = r_e < 2
    assert _match_components(r_e[first], c_e[first], cost, 1.0, col_of_row, y, z)
    assert col_of_row[:2].tolist() == [0, 1]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              elements=st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.5])))
def test_property_small_solver_matches_exhaustive_enumeration(weight):
    """The matching has the largest weight, and its duals cover every
    weight, are tight on each pair and zero where a row or column is free."""
    col_of, y, z = _max_weight_matching(weight.tolist())
    pairs = [(r, c) for r, c in enumerate(col_of) if c >= 0]
    assert len({c for _, c in pairs}) == len(pairs)
    assert all(weight[r, c] > 0.0 for r, c in pairs)
    _, least_cost = brute_force_assignment(-weight)
    assert sum(weight[r, c] for r, c in pairs) == pytest.approx(-least_cost, abs=1e-12)
    y, z = np.array(y), np.array(z)
    assert (y >= 0.0).all() and (z >= 0.0).all()
    assert (y[:, None] + z >= weight - 1e-12).all()
    for r, c in pairs:
        assert y[r] + z[c] == pytest.approx(weight[r, c], abs=1e-12)
    matched_cols = {c for _, c in pairs}
    assert all(y[r] == 0.0 for r, c in enumerate(col_of) if c < 0)
    assert all(z[c] == 0.0 for c in range(len(z)) if c not in matched_cols)


@settings(max_examples=300, deadline=None)
@given(_matrices() | _fill_heavy_matrices() | _blocks(max_side=9), st.randoms())
def test_property_solve_gives_an_optimum_and_its_reduced_costs(cost, rnd):
    """The permutation is optimal, and its reduced costs are non-negative,
    zero on it, and price any other permutation at its extra cost."""
    n_rows, n_cols = cost.shape
    n = max(n_rows, n_cols)
    square = np.zeros((n, n))
    square[:n_rows, :n_cols] = cost
    col_of_row, rc = _solve(cost, square)
    assert sorted(col_of_row.tolist()) == list(range(n))
    best, tol = _tolerance(square)
    assert abs(square[np.arange(n), col_of_row].sum() - best) <= tol
    assert (rc >= 0.0).all() and (rc[np.arange(n), col_of_row] == 0.0).all()
    other = list(range(n))
    rnd.shuffle(other)
    extra = square[np.arange(n), other].sum() - square[np.arange(n), col_of_row].sum()
    assert rc[np.arange(n), other].sum() == pytest.approx(extra, abs=1e-9)
