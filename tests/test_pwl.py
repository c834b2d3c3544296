import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit.pwl import PiecewiseLinear, combine, stitch


class TestEvaluation:
    def test_affine(self):
        f = PiecewiseLinear.affine(2.0, -0.5)
        assert f(0.0) == pytest.approx(2.0)
        assert f(4.0) == pytest.approx(0.0)
        assert f(-2.0) == pytest.approx(3.0)

    def test_constant(self):
        f = PiecewiseLinear.constant(1.5)
        assert f(-100.0) == 1.5 and f(100.0) == 1.5

    def test_tails_use_their_own_slopes(self):
        f = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 1.0]), -2.0, 3.0)
        assert f(-1.0) == pytest.approx(2.0)
        assert f(2.0) == pytest.approx(4.0)
        assert f(0.5) == pytest.approx(0.5)

    def test_vectorized_call(self):
        f = PiecewiseLinear.affine(1.0, 1.0)
        out = f(np.array([-1.0, 0.0, 2.0]))
        assert np.allclose(out, [0.0, 1.0, 3.0])

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0, 0.0)


class TestCombine:
    def test_weight_count_checked(self):
        f = PiecewiseLinear.constant(0.0)
        with pytest.raises(ValueError):
            combine([f, f], [1.0])

    def test_simplify_drops_collinear_points(self):
        f = PiecewiseLinear(
            np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]), 1.0, 1.0
        ).simplify()
        assert f.xs.size == 2


class TestStitch:
    def test_two_pieces(self):
        left = PiecewiseLinear.affine(0.0, 1.0)   # x
        right = PiecewiseLinear.affine(2.0, -1.0)  # 2 - x, agrees at x=1
        f = stitch([left, right], [1.0])
        assert f(0.5) == pytest.approx(0.5)
        assert f(1.0) == pytest.approx(1.0)
        assert f(3.0) == pytest.approx(-1.0)
        assert f.left_slope == 1.0 and f.right_slope == -1.0

    def test_discontinuity_rejected(self):
        left = PiecewiseLinear.constant(0.0)
        right = PiecewiseLinear.constant(1.0)
        with pytest.raises(ValueError):
            stitch([left, right], [0.0])

    def test_empty_middle_piece(self):
        a = PiecewiseLinear.affine(0.0, 1.0)
        c = PiecewiseLinear.affine(0.0, 1.0)
        mid = PiecewiseLinear.constant(1.0)
        f = stitch([a, mid, c], [1.0, 1.0])
        for x in [-1.0, 0.0, 1.0, 2.0]:
            assert f(x) == pytest.approx(x)

    def test_piece_count_checked(self):
        f = PiecewiseLinear.constant(0.0)
        with pytest.raises(ValueError):
            stitch([f, f], [0.0, 1.0])


class TestLeastRoot:
    def test_interior_root(self):
        f = PiecewiseLinear(np.array([0.0, 2.0]), np.array([-1.0, 3.0]), 0.0, 2.0)
        assert f.least_root() == pytest.approx(0.5)

    def test_root_in_left_tail(self):
        f = PiecewiseLinear.affine(1.0, 2.0)  # root at -0.5
        assert f.least_root() == pytest.approx(-0.5)

    def test_root_in_right_tail(self):
        f = PiecewiseLinear(np.array([0.0]), np.array([-3.0]), 0.0, 1.5)
        assert f.least_root() == pytest.approx(2.0)

    def test_flat_zero_stretch_returns_left_end(self):
        f = PiecewiseLinear(
            np.array([0.0, 1.0, 2.0]), np.array([-1.0, 0.0, 0.0]), 0.0, 1.0
        )
        assert f.least_root() == pytest.approx(1.0)

    def test_always_positive_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear.constant(1.0).least_root()

    def test_always_negative_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear.constant(-1.0).least_root()

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear.affine(0.0, -1.0).least_root()


@st.composite
def pwl_strategy(draw):
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    xs = np.cumsum(gaps) + draw(st.floats(-5, 5))
    ls = draw(st.floats(-3, 3))
    rs = draw(st.floats(-3, 3))
    return PiecewiseLinear(xs, np.array(ys), ls, rs)


@settings(max_examples=60)
@given(pwl_strategy(), pwl_strategy(), st.floats(-10, 10))
def test_combine_is_pointwise(f, g, x):
    assert combine([f, g], [1.0, 1.0])(x) == pytest.approx(f(x) + g(x), abs=1e-9)


@settings(max_examples=60)
@given(
    st.lists(st.floats(0.05, 2.0), min_size=2, max_size=6),
    st.floats(-4.0, -0.1),
    st.floats(-5, 5),
)
def test_least_root_is_a_sign_change(increments, y0, x0):
    """For a strictly increasing PWL the least root has f < 0 left of it."""
    xs = x0 + np.arange(len(increments), dtype=float)
    ys = y0 + np.concatenate([[0.0], np.cumsum(increments[:-1])])
    f = PiecewiseLinear(xs, ys, 0.5, 0.5)
    r = f.least_root()
    assert f(r) == pytest.approx(0.0, abs=1e-9)
    assert f(r - 1e-6) < 0.0
