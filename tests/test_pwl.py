import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evbandit.pwl import (
    CONTINUITY_TOL, MERGE_TOL, PiecewiseLinear, PWLBatch, RowError, combine, stitch,
)


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


# -- batch operations against the one-function loops -------------------------
#
# The reference functions below are the one-function implementations the
# batch operations replaced (evaluation by np.interp), kept verbatim apart from
# calling each other; every batch row must match them bit for bit.


def reference_call(f: PiecewiseLinear, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.interp(x, f.xs, f.ys)
    lo = x < f.xs[0]
    hi = x > f.xs[-1]
    out[lo] = f.ys[0] + f.left_slope * (x[lo] - f.xs[0])
    out[hi] = f.ys[-1] + f.right_slope * (x[hi] - f.xs[-1])
    return out


def reference_simplify(f: PiecewiseLinear, rel_tol: float = 1e-13) -> PiecewiseLinear:
    xs, ys = f.xs, f.ys
    if xs.size <= 2:
        return f
    keep = np.ones(xs.size, dtype=bool)
    for i in range(1, xs.size - 1):
        j = i - 1
        while not keep[j]:
            j -= 1
        dx = xs[i + 1] - xs[j]
        if dx == 0:
            keep[i] = False
            continue
        t = (xs[i] - xs[j]) / dx
        lin = ys[j] + t * (ys[i + 1] - ys[j])
        if abs(lin - ys[i]) <= rel_tol * max(1.0, abs(ys[i])):
            keep[i] = False
    if keep.all():
        return f
    return PiecewiseLinear(xs[keep], ys[keep], f.left_slope, f.right_slope)


def reference_combine(funcs, weights) -> PiecewiseLinear:
    xs = np.unique(np.concatenate([f.xs for f in funcs]))
    if xs.size > 1:
        gaps = np.diff(xs) > MERGE_TOL
        xs = xs[np.concatenate([[True], gaps])]
    ys = np.zeros_like(xs)
    ls = 0.0
    rs = 0.0
    for w, f in zip(weights, funcs):
        ys += w * reference_call(f, xs)
        ls += w * f.left_slope
        rs += w * f.right_slope
    return reference_simplify(PiecewiseLinear(xs, ys, ls, rs))


def reference_stitch(pieces, knots) -> PiecewiseLinear:
    knots = [float(k) for k in knots]
    for i, k in enumerate(knots):
        li = i
        while li > 0 and knots[li - 1] == k:
            li -= 1
        a = reference_call(pieces[li], k)[0]
        b = reference_call(pieces[i + 1], k)[0]
        if abs(a - b) > CONTINUITY_TOL * max(1.0, abs(a)):
            raise ValueError(f"pieces disagree at knot {k}: {a} vs {b}")
    xs_parts = []
    ys_parts = []
    n = len(pieces)
    for i, p in enumerate(pieces):
        lo = knots[i - 1] if i > 0 else -np.inf
        hi = knots[i] if i < n - 1 else np.inf
        if lo > hi:
            continue
        inner = p.xs[(p.xs > lo) & (p.xs < hi)]
        seg_x = []
        if np.isfinite(lo):
            seg_x.append(lo)
        seg_x.extend(inner.tolist())
        if np.isfinite(hi):
            seg_x.append(hi)
        seg_x = np.asarray(seg_x, dtype=float)
        xs_parts.append(seg_x)
        ys_parts.append(reference_call(p, seg_x))
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ys = ys[order]
    if xs.size > 1:
        keep = np.concatenate([[True], np.diff(xs) > MERGE_TOL])
        xs = xs[keep]
        ys = ys[keep]
    return reference_simplify(PiecewiseLinear(xs, ys, pieces[0].left_slope, pieces[-1].right_slope))


def reference_least_root(f: PiecewiseLinear) -> float:
    ys, xs = f.ys, f.xs
    if ys[0] >= 0.0:
        if f.left_slope <= 0.0:
            if ys[0] == 0.0:
                raise ValueError("zero set is unbounded below")
            raise ValueError("function is positive everywhere")
        return float(xs[0] - ys[0] / f.left_slope)
    pos = np.nonzero(ys >= 0.0)[0]
    if pos.size == 0:
        if f.right_slope <= 0.0:
            raise ValueError("function is negative everywhere")
        return float(xs[-1] - ys[-1] / f.right_slope)
    i = int(pos[0])
    t = -ys[i - 1] / (ys[i] - ys[i - 1])
    return float(xs[i - 1] + t * (xs[i] - xs[i - 1]))


def same_bits(f: PiecewiseLinear, g: PiecewiseLinear) -> bool:
    return (f.xs.tobytes() == g.xs.tobytes() and f.ys.tobytes() == g.ys.tobytes()
            and np.float64(f.left_slope).tobytes() == np.float64(g.left_slope).tobytes()
            and np.float64(f.right_slope).tobytes() == np.float64(g.right_slope).tobytes())


# gaps include ones at and below MERGE_TOL, so that merges happen; slopes come
# from a short list, so that runs of (nearly) collinear points are common
GAP = st.one_of(st.sampled_from([1e-13, 1e-12, 3e-12, 0.25, 0.5, 1.0]), st.floats(1e-3, 2.0))
SLOPE = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-3, 3))


@st.composite
def rows_strategy(draw, max_points=7, increasing=False, free=False, min_points=1):
    """A PiecewiseLinear, from ``min_points`` breakpoints up; nondecreasing if
    asked, with values drawn one by one if ``free``."""
    n = draw(st.integers(min_points, max_points))
    x0 = draw(st.floats(-4, 4)) + 0.0  # no -0.0
    gaps = draw(st.lists(GAP, min_size=n - 1, max_size=n - 1))
    xs = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    if np.any(np.diff(xs) <= 0):
        xs = x0 + np.arange(n, dtype=float)
    slope = st.floats(0, 3) if increasing else SLOPE
    seg = np.array(draw(st.lists(slope, min_size=n - 1, max_size=n - 1)))
    ys = draw(st.floats(-4, 4)) + np.concatenate([[0.0], np.cumsum(seg * np.diff(xs))])
    if free:
        ys = np.array(draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n)))
    return PiecewiseLinear(xs, ys, draw(slope), draw(slope))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(rows_strategy(), rows_strategy(free=True)), min_size=1, max_size=5),
       st.data())
def test_batch_evaluation_matches_interp(funcs, data):
    """Queries at breakpoints, between them and in both tails."""
    m = data.draw(st.integers(1, 8))
    q = []
    for f in funcs:
        span = f.xs[-1] - f.xs[0] + 1.0
        candidates = np.concatenate([f.xs, f.xs[:1] - span, f.xs[-1:] + span,
                                     (f.xs[:-1] + f.xs[1:]) / 2])
        picks = data.draw(st.lists(st.one_of(st.sampled_from(candidates.tolist()),
                                             st.floats(-10, 10)), min_size=m, max_size=m))
        q.append(sorted(picks))
    q = np.array(q)
    got = PWLBatch.of(funcs)(q)
    for r, f in enumerate(funcs):
        assert got[r].tobytes() == reference_call(f, q[r]).tobytes()
        shuffled = q[r][::-1]  # the one-function call takes queries in any order
        assert f(shuffled).tobytes() == reference_call(f, shuffled).tobytes()


def test_batch_evaluation_wants_sorted_queries():
    with pytest.raises(ValueError):
        PWLBatch.of([PiecewiseLinear.affine(0.0, 1.0)])(np.array([[1.0, 0.0]]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(rows_strategy(max_points=9), min_size=0, max_size=3), min_size=1,
                max_size=4).filter(lambda parts: any(parts)))
def test_batch_concat_pads_with_inf_and_zero(parts):
    """Rows of unequal width come back in order, each padded to the widest
    with +inf in X and 0 in Y; a batch may hold no row."""
    empty = PWLBatch.of([PiecewiseLinear.constant(0.0)]).take(np.arange(0))
    batches = [PWLBatch.of(p) if p else empty for p in parts]
    funcs = [f for p in parts for f in p]
    out = PWLBatch.concat(batches)
    assert out.X.shape == (len(funcs), max(f.xs.size for f in funcs))
    for r, f in enumerate(funcs):
        assert same_bits(out.row(r), f)
        assert np.all(out.X[r, f.xs.size:] == np.inf)
        assert out.Y[r, f.xs.size:].tobytes() == np.zeros(out.X.shape[1] - f.xs.size).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(rows_strategy(max_points=9), min_size=1, max_size=5))
def test_batch_simplify_matches_loop(funcs):
    out = PWLBatch.of(funcs).simplify()
    for r, f in enumerate(funcs):
        assert same_bits(out.row(r), reference_simplify(f))


@settings(max_examples=150, deadline=None)
@given(st.lists(rows_strategy(), min_size=1, max_size=6), st.data())
def test_batch_combine_matches_loop(funcs, data):
    """Groups of members, several weight vectors per group.  No group at all
    and an empty ``group`` are drawn too: the recursion's combine of crossed
    indexes has that shape on a level where no two indexes cross."""
    n_groups = data.draw(st.integers(0, 3))
    m = data.draw(st.integers(1, 3))
    members = np.array([[data.draw(st.integers(0, len(funcs) - 1)) for _ in range(m)]
                        for _ in range(n_groups)], dtype=int).reshape(n_groups, m)
    group = np.array(data.draw(st.lists(st.integers(0, max(n_groups - 1, 0)),
                                        max_size=5 * min(n_groups, 1))), dtype=int)
    weights = np.array([[data.draw(st.sampled_from([1.0, 0.0, 0.3, 0.9, -0.7]))
                         for _ in range(m)] for _ in group]).reshape(group.size, m)
    out = PWLBatch.of(funcs).combine(members, weights, group)
    assert out.n.size == group.size
    for o, g in enumerate(group):
        assert same_bits(out.row(o), reference_combine([funcs[i] for i in members[g]], weights[o]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_batch_combine_on_zero_groups(m):
    """No group, with ``group`` left out or empty, on a batch of unequal
    widths: an empty batch, as the recursion's combine of crossed indexes
    gives on a level where no two indexes cross."""
    batch = PWLBatch.of([PiecewiseLinear.affine(1.0, 2.0),
                         PiecewiseLinear(np.arange(6.0), np.arange(6.0) ** 2, -1.0, 1.0)])
    members, weights = np.zeros((0, m), dtype=int), np.ones((0, m))
    for group in (None, np.zeros(0, dtype=int)):
        out = batch.combine(members, weights, group)
        assert out.n.size == out.X.shape[0] == out.left.size == out.right.size == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(rows_strategy(max_points=2), min_size=1, max_size=5),
       rows_strategy(min_points=20, max_points=40), st.data())
def test_batch_combine_with_one_wide_member_matches_loop(narrow, wide, data):
    """One wide row among narrow ones, in some groups only: every member is
    evaluated in one call on rows padded to the widest, and each group's sum
    must still be the per-member evaluation's bit for bit.  Extra padding
    changes nothing either."""
    funcs = narrow + [wide]
    n_groups = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 3))
    members = np.array([[data.draw(st.integers(0, len(funcs) - 1)) for _ in range(m)]
                        for _ in range(n_groups)], dtype=int)
    members[data.draw(st.integers(0, n_groups - 1)), data.draw(st.integers(0, m - 1))] = len(funcs) - 1
    weights = np.array([[data.draw(st.sampled_from([1.0, 0.3, -0.7])) for _ in range(m)]
                        for _ in range(n_groups)])
    out = widened(PWLBatch.of(funcs), data.draw(st.sampled_from([0, 3]))).combine(members, weights)
    for g in range(n_groups):
        assert same_bits(out.row(g), reference_combine([funcs[i] for i in members[g]], weights[g]))


def lifted(f: PiecewiseLinear, c: float) -> PiecewiseLinear:
    return PiecewiseLinear(f.xs, f.ys + c, f.left_slope, f.right_slope)


@st.composite
def stitch_case(draw, widths=(7, 7, 7)):
    """Three pieces lifted to meet at two knots, up to offsets near and past
    CONTINUITY_TOL.  Equal knots are common; there the outer pieces meet.
    Piece i has at most ``widths[i]`` breakpoints."""
    p0, p1, p2 = (draw(rows_strategy(max_points=w)) for w in widths)
    k1 = draw(st.floats(-5, 5)) + 0.0
    k2 = k1 if draw(st.booleans()) else k1 + draw(GAP)
    off = st.sampled_from([0.0, 0.0, 6e-10, -6e-10, 1.0])
    p1 = lifted(p1, p0(k1) - p1(k1) + draw(off))
    p2 = lifted(p2, (p0 if k2 == k1 else p1)(k2) - p2(k2) + draw(off))
    return [p0, p1, p2], [k1, k2]


def widened(batch: PWLBatch, extra: int) -> PWLBatch:
    """The same rows with ``extra`` more columns of padding."""
    return PWLBatch(np.pad(batch.X, ((0, 0), (0, extra)), constant_values=np.inf),
                    np.pad(batch.Y, ((0, 0), (0, extra))), batch.n, batch.left, batch.right)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_stitch_matches_loop(data):
    """Same rows bit for bit, or a RowError naming a row the loop rejects.
    The pieces differ in width, by their breakpoints and by extra padding, as
    a stitch evaluates them all in one call on the widest."""
    widths = data.draw(st.tuples(*[st.sampled_from([1, 3, 9])] * 3))
    cases = data.draw(st.lists(stitch_case(widths), min_size=1, max_size=4))
    want = []
    for ps, knots in cases:
        try:
            want.append(reference_stitch(ps, knots))
        except ValueError as e:
            want.append(e)
    pieces = [widened(PWLBatch.of([c[0][i] for c in cases]), data.draw(st.sampled_from([0, 0, 2])))
              for i in range(3)]
    knots = np.array([c[1] for c in cases])
    if any(isinstance(w, ValueError) for w in want):
        with pytest.raises(RowError) as err:
            PWLBatch.stitch(pieces, knots)
        assert str(err.value) == str(want[err.value.row])
        return
    out = PWLBatch.stitch(pieces, knots)
    for r, w in enumerate(want):
        assert same_bits(out.row(r), w)


def test_batch_stitch_names_the_row_that_disagrees():
    zero, one = PiecewiseLinear.constant(0.0), PiecewiseLinear.constant(1.0)
    pieces = [PWLBatch.of([zero, zero, zero]), PWLBatch.of([zero, zero, one])]
    with pytest.raises(RowError, match="disagree") as err:
        PWLBatch.stitch(pieces, np.zeros((3, 1)))
    assert err.value.row == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(rows_strategy(increasing=True), min_size=1, max_size=5), st.data())
def test_batch_least_roots_match_loop(funcs, data):
    """Nondecreasing rows lowered to cross zero at a breakpoint or in a tail.
    A subnormal tail slope overflows a root to inf on both sides alike."""
    shifted = []
    with np.errstate(over="ignore"):
        for f in funcs:
            level = data.draw(st.sampled_from(f.ys.tolist() + [float(f.ys.min()) - 1.0]))
            g = PiecewiseLinear(f.xs, f.ys - level, f.left_slope, f.right_slope)
            try:
                reference_least_root(g)
            except ValueError:
                g = PiecewiseLinear(f.xs, f.ys - level, 1.0, 1.0)
            shifted.append(g)
        got = PWLBatch.of(shifted).least_roots()
        for r, f in enumerate(shifted):
            assert np.float64(got[r]).tobytes() == np.float64(reference_least_root(f)).tobytes()


def test_batch_least_roots_names_the_first_bad_row():
    rows = [PiecewiseLinear.affine(-1.0, 1.0), PiecewiseLinear.constant(-1.0),
            PiecewiseLinear.constant(-2.0)]
    with pytest.raises(RowError, match="negative everywhere") as err:
        PWLBatch.of(rows).least_roots()
    assert err.value.row == 1
