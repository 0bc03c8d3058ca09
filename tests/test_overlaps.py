"""The batched overlap kernel against the scalar bev_iou and iou3d.

geometry.overlaps scores a whole list of candidate pairs in NumPy, and must
give each pair's scalar value bit for bit: the same float, compared by
float.hex, so that -0.0, NaN and the last bit all count. Pairs are built
where the scalar code branches: equal boxes, touching edges, shared corners,
quarter and half turns, slivers around the area cut-off, z-ranges that touch
or miss, and sizes whose areas overflow.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidarpost import geometry
from lidarpost.geometry import (
    _AREA_EPS,
    Box3D,
    Label,
    bev_iou,
    iou3d,
    iou_blocks,
    iou_matrix,
    overlap_kind,
    overlaps,
)
from oracles import reference_iou_matrix

SCALAR = {"bev": bev_iou, "3d": iou3d}


def _hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


def _moved(box, **changes):
    values = dict(cx=box.cx, cy=box.cy, cz=box.cz, length=box.length, width=box.width,
                  height=box.height, heading=box.heading)
    values.update(changes)
    return Box3D(**values)


_COORD = st.floats(-50.0, 50.0)
_SIZE = st.floats(0.1, 8.0)
_HEADING = st.floats(-math.pi, math.pi)


@st.composite
def _base(draw):
    return Box3D(draw(_COORD), draw(_COORD), draw(st.floats(-2.0, 2.0)), draw(_SIZE),
                 draw(_SIZE), draw(st.floats(0.2, 3.0)),
                 draw(_HEADING | st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi])))


@st.composite
def _pair(draw):
    """A box and a second one where the scalar code branches."""
    a = draw(_base())
    c, s = math.cos(a.heading), math.sin(a.heading)
    relation = draw(st.sampled_from(["equal", "turn", "edge", "corner", "sliver", "z", "near"]))
    if relation == "equal":
        return a, _moved(a)
    if relation == "turn":
        return a, _moved(a, heading=a.heading + draw(st.sampled_from(
            [math.pi / 2, -math.pi / 2, math.pi, -math.pi])))
    if relation == "edge":  # the next box along the length or the width axis
        along = draw(st.booleans())
        step = a.length if along else a.width
        dx, dy = (c * step, s * step) if along else (-s * step, c * step)
        return a, _moved(a, cx=a.cx + dx, cy=a.cy + dy,
                         heading=a.heading + draw(st.sampled_from([0.0, math.pi])))
    if relation == "corner":  # the diagonal neighbour: one shared corner
        return a, _moved(a, cx=a.cx + c * a.length - s * a.width,
                         cy=a.cy + s * a.length + c * a.width)
    if relation == "sliver":  # a strip of about _AREA_EPS, on either side of it
        gap = _AREA_EPS / a.width * draw(st.floats(0.5, 1.5))
        shift = a.length - gap
        return a, _moved(a, cx=a.cx + c * shift, cy=a.cy + s * shift)
    if relation == "z":  # z-ranges that touch, overlap a hair, or miss
        reach = 0.5 * (a.height + a.height)
        dz = reach * draw(st.sampled_from([1.0, 1.0 + 1e-15, 1.0 - 1e-15, 2.0]))
        return a, _moved(a, cz=a.cz + dz)
    return a, _moved(a, cx=a.cx + draw(st.floats(-3.0, 3.0)), cy=a.cy + draw(st.floats(-3.0, 3.0)),
                     cz=a.cz + draw(st.floats(-1.0, 1.0)), length=draw(_SIZE),
                     width=draw(_SIZE), heading=draw(_HEADING))


# The overflow cases: an area of inf whose IoU the scalar code gives as 0.0,
# and a pair whose BEV IoU it gives as NaN.
_HUGE = Box3D(3.0, -2.0, 0.0, 1e160, 1e160, 1.0, 0.7)
_NAN_PAIR = (Box3D(1e154, 3.0, 0.0, 1e155, 1e154, 1.0, 0.0),
             Box3D(1.7e308, 1.7e308, 0.0, 5e-324, 1e-300, 1.0, 1.0))


class TestKernelAgainstScalar:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_pair())
    @example((_HUGE, _HUGE))
    @example(_NAN_PAIR)
    def test_one_pair_in_both_orders(self, pair):
        a, b = pair
        for kind, fn in SCALAR.items():
            assert _hex(overlaps([a], [b], kind)) == _hex([fn(a, b)])
            assert _hex(overlaps([b], [a], kind)) == _hex([fn(b, a)])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(_pair(), min_size=1, max_size=12))
    def test_many_pairs_in_one_call(self, pairs):
        """Polygons of different vertex counts share one padded pass."""
        rows = [box for pair in pairs for box in pair]
        cols = rows[::-1]
        for kind, fn in SCALAR.items():
            assert _hex(overlaps(rows, cols, kind)) == _hex(reference_iou_matrix(rows, cols, fn))

    def test_overflowing_sizes(self):
        assert bev_iou(_HUGE, _HUGE) == 0.0 and iou3d(_HUGE, _HUGE) == 0.0
        assert _hex(overlaps([_HUGE], [_HUGE], "bev")) == _hex([0.0])
        a, b = _NAN_PAIR
        assert math.isnan(bev_iou(a, b))
        assert math.isnan(overlaps([a], [b], "bev")[0, 0])


class TestBlocks:
    def test_blocks_equal_their_matrices_one_by_one(self):
        rng = np.random.default_rng(3)
        boxes = [Box3D(float(x), float(y), 0.0, 4.0, 2.0, 1.5, float(h))
                 for x, y, h in zip(rng.uniform(-6, 6, 60), rng.uniform(-6, 6, 60),
                                    rng.uniform(-math.pi, math.pi, 60))]
        blocks = [(boxes[:10], boxes[10:25]), ([], boxes[:3]), (boxes[25:40], []),
                  (boxes[40:41], boxes[41:60]), (boxes[:30], boxes[:30])]
        for fn in (bev_iou, iou3d):
            got = list(iou_blocks(blocks, fn))
            assert len(got) == len(blocks)
            for (rows, cols), matrix in zip(blocks, got):
                assert matrix.shape == (len(rows), len(cols))
                assert _hex(matrix) == _hex(reference_iou_matrix(rows, cols, fn))

    @pytest.mark.parametrize("pass_pairs", [1, 7, 40, 1 << 16])
    def test_blocks_that_span_several_passes(self, pass_pairs):
        """Passes end after whole blocks once they hold pass_pairs candidate
        pairs: one pair ends every pass, and one pass takes them all."""
        rng = np.random.default_rng(4)
        boxes = [Box3D(float(x), float(y), float(z), 4.0, 2.0, 1.5, float(h))
                 for x, y, z, h in zip(rng.uniform(-5, 5, 80), rng.uniform(-5, 5, 80),
                                       rng.uniform(-1, 1, 80), rng.uniform(-math.pi, math.pi, 80))]
        blocks = [(boxes[k:k + 9], boxes[k + 3:k + 14]) for k in range(0, 66, 5)]
        blocks += [([], boxes[:4]), (boxes[70:], boxes[70:]), (boxes[:2], [])]
        with mock.patch.object(geometry, "_PASS_PAIRS", pass_pairs):
            for kind, fn in SCALAR.items():
                got = list(iou_blocks(blocks, fn))
                assert len(got) == len(blocks)
                for (rows, cols), matrix in zip(blocks, got):
                    assert matrix.shape == (len(rows), len(cols))
                    assert _hex(matrix) == _hex(overlaps(rows, cols, kind))

    def test_a_pass_ends_after_the_block_that_fills_it(self):
        boxes = [Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0)] * 3
        blocks = [(boxes, boxes)] * 5  # 9 candidate pairs each
        with mock.patch.object(geometry, "_PASS_PAIRS", 18), \
                mock.patch.object(geometry, "_kernel", wraps=geometry._kernel) as kernel:
            for matrix in iou_blocks(blocks, bev_iou):
                assert _hex(matrix) == _hex(np.ones((3, 3)))
        assert [len(call.args[2]) for call in kernel.call_args_list] == [18, 18, 9]

    def test_iou_matrix_takes_the_kernel_for_bev_iou_and_iou3d_only(self):
        assert overlap_kind(bev_iou) == "bev" and overlap_kind(iou3d) == "3d"
        assert overlap_kind(lambda a, b: bev_iou(a, b)) is None
        box = Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.3, label=Label.CYCLIST)
        other = _moved(box, cx=1.0)
        assert iou_matrix([box], [other], iou3d).tolist() == overlaps([box], [other], "3d").tolist()

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="kind must be 'bev' or '3d', got 'iou'"):
            overlaps([], [], "iou")

    @pytest.mark.parametrize("kind", ["bev", "3d"])
    def test_empty_sides(self, kind):
        box = Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0)
        assert overlaps([], [box], kind).shape == (0, 1)
        assert overlaps([box, box], [], kind).shape == (2, 0)
        assert overlaps([], [], kind).shape == (0, 0)
