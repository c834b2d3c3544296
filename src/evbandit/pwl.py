"""Piecewise-linear functions of a scalar subsidy variable.

Value differences of the single-charger subsidy problem are piecewise linear
in the subsidy, with finitely many breakpoints and linear tails.  This module
gives them a small exact-arithmetic-style calculus: pointwise combination,
stitching of case-defined pieces, and least-root extraction, which is all the
index recursion needs.

Representation: strictly increasing breakpoints ``xs`` with values ``ys``,
plus the slopes of the two unbounded tails.  Between breakpoints the function
interpolates linearly; it is continuous by construction.  ``PWLBatch`` holds
many such functions as the rows of padded arrays and runs each operation on
all rows at once.  ``PiecewiseLinear.simplify``, ``least_root``, ``combine``
and ``stitch`` are one-row calls of those operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MERGE_TOL = 1e-12
CONTINUITY_TOL = 1e-9
SIMPLIFY_TOL = 1e-13  # relative error within which simplify drops a breakpoint
MONOTONE_TOL = 1e-9  # relative fall that least_roots still takes as nondecreasing


class RowError(ValueError):
    """A batch operation failed on row ``row``."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class PiecewiseLinear:
    xs: np.ndarray
    ys: np.ndarray
    left_slope: float
    right_slope: float

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
            raise ValueError("need matching non-empty breakpoint arrays")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls(np.array([0.0]), np.array([float(value)]), 0.0, 0.0)

    @classmethod
    def affine(cls, intercept: float, slope: float) -> "PiecewiseLinear":
        """The function intercept + slope * x."""
        return cls(np.array([0.0]), np.array([float(intercept)]), slope, slope)

    # -- one-row calls of the batch operations -----------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        order = np.argsort(x, axis=None)
        out = np.empty(x.size)
        out[order] = PWLBatch.of([self])(x.ravel()[order][None])[0]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def least_root(self) -> float:
        """Smallest x with f(x) = 0, for a nondecreasing f that changes sign.

        Returns the left endpoint of the zero set.
        """
        return float(PWLBatch.of([self]).least_roots()[0])

    def simplify(self) -> "PiecewiseLinear":
        """Drop interior breakpoints that interpolation reproduces anyway."""
        return PWLBatch.of([self]).simplify().row(0)


def combine(funcs: list[PiecewiseLinear], weights) -> PiecewiseLinear:
    """Pointwise weighted sum, breakpoints merged within MERGE_TOL."""
    weights = np.asarray(weights, dtype=float)
    if len(funcs) != weights.size or len(funcs) == 0:
        raise ValueError("need one weight per function")
    return PWLBatch.of(funcs).combine(np.arange(len(funcs))[None], weights[None]).row(0)


def stitch(pieces: list[PiecewiseLinear], knots) -> PiecewiseLinear:
    """Assemble a function defined piecewise on consecutive intervals.

    ``pieces[i]`` applies on [knots[i-1], knots[i]] (unbounded at the ends).
    Knots must be nondecreasing; equal knots make the middle piece empty.
    Adjacent pieces must agree at the shared knot within CONTINUITY_TOL.
    """
    knots = np.asarray(knots, dtype=float).reshape(1, -1)
    if len(pieces) != knots.size + 1:
        raise ValueError("need len(pieces) == len(knots) + 1")
    return PWLBatch.stitch([PWLBatch.of([p]) for p in pieces], knots).row(0)


def _spaced(X: np.ndarray) -> np.ndarray:
    """Per row: the first entry, and each one more than MERGE_TOL above its
    predecessor (the rule that merges breakpoints)."""
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        gaps = X[:, 1:] - X[:, :-1] > MERGE_TOL
    return np.concatenate([np.ones((X.shape[0], 1), dtype=bool), gaps], axis=1)


def _check(bad: np.ndarray, message) -> None:
    """Raise RowError for the first row flagged in ``bad``."""
    if bad.any():
        r = int(np.argmax(bad))
        raise RowError(r, message(r) if callable(message) else message)


@dataclass(frozen=True)
class PWLBatch:
    """Piecewise-linear functions as the rows of padded arrays.

    Row r has the strictly increasing breakpoints ``X[r, :n[r]]``, values
    ``Y[r, :n[r]]`` and tail slopes ``left[r]``, ``right[r]``.  X is padded
    with +inf, so that each row sorts its breakpoints first; every operation
    masks the padding.
    """

    X: np.ndarray
    Y: np.ndarray
    n: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @classmethod
    def of(cls, funcs: list[PiecewiseLinear]) -> "PWLBatch":
        return cls.concat([cls(f.xs[None], f.ys[None], np.array([f.xs.size]),
                               np.array([f.left_slope], dtype=float),
                               np.array([f.right_slope], dtype=float)) for f in funcs])

    @classmethod
    def affine(cls, intercept, slope) -> "PWLBatch":
        """Rows intercept[r] + slope[r] * x, each one breakpoint at x = 0."""
        intercept, slope = np.asarray(intercept, dtype=float), np.asarray(slope, dtype=float)
        return cls(np.zeros((intercept.size, 1)), intercept[:, None],
                   np.ones(intercept.size, dtype=int), slope, slope)

    @classmethod
    def concat(cls, batches: list["PWLBatch"]) -> "PWLBatch":
        """The rows of all batches in order, in arrays preallocated to the
        widest batch: X padded with +inf, Y with 0."""
        n, left, right = (np.concatenate([getattr(b, k) for b in batches])
                          for k in ("n", "left", "right"))
        X = np.full((n.size, max(b.X.shape[1] for b in batches)), np.inf)
        Y = np.zeros_like(X)
        for b, lo in zip(batches, np.cumsum([0] + [b.n.size for b in batches])):
            at = np.s_[lo : lo + b.n.size, : b.X.shape[1]]
            X[at], Y[at] = b.X, b.Y
        return cls(X, Y, n, left, right)

    @classmethod
    def _pack(cls, X, Y, keep, left, right) -> "PWLBatch":
        """Each row's kept entries, in order, moved to the front."""
        n = keep.sum(axis=1)
        out_X = np.full((n.size, max(int(n.max(initial=0)), 1)), np.inf)
        out_Y = np.zeros_like(out_X)
        front = np.arange(out_X.shape[1]) < n[:, None]
        out_X[front], out_Y[front] = X[keep], Y[keep]
        return cls(out_X, out_Y, n, left, right)

    @property
    def valid(self) -> np.ndarray:
        return np.arange(self.X.shape[1]) < self.n[:, None]

    def row(self, r: int) -> PiecewiseLinear:
        k = self.n[r]
        return PiecewiseLinear(self.X[r, :k], self.Y[r, :k],
                               float(self.left[r]), float(self.right[r]))

    def take(self, rows) -> "PWLBatch":
        """The given rows, their padding trimmed to the longest of them."""
        n = self.n[rows]
        width = max(int(n.max(initial=0)), 1)
        return PWLBatch(self.X[rows, :width], self.Y[rows, :width], n,
                        self.left[rows], self.right[rows])

    def __call__(self, q) -> np.ndarray:
        """Row r at the points ``q[r, :]``, sorted along the row: ``np.interp``
        between the breakpoints, bit for bit, and the tails beyond them."""
        q = np.asarray(q, dtype=float)
        if np.any(q[:, 1:] < q[:, :-1]):
            raise ValueError("query points must be sorted along each row")
        rows, width = self.X.shape
        # a stable sort of each row's breakpoints and queries puts every
        # breakpoint before an equal query; the queries keep their order, so
        # the breakpoints before query i are its position less i.  Only the
        # sort's mask is kept and at is reused: at a combine's size, peak memory costs time
        query = np.argsort(np.concatenate([self.X, q], axis=1), axis=1, kind="stable") >= width
        j = np.flatnonzero(query).reshape(q.shape)  # flat positions, rows of width + Q
        j -= (width + q.shape[1]) * np.arange(rows)[:, None] + np.arange(q.shape[1]) + 1
        base = (np.arange(rows) * width)[:, None]
        at = base + np.maximum(j, 0)  # j: last breakpoint <= q, -1 if none
        last = base + (self.n - 1)[:, None]
        X, Y = self.X.ravel(), self.Y.ravel()
        xj, yj, xn, yn = X[at], Y[at], X[last], Y[last]
        # the entry after at: at a row's last breakpoint it is padding or the
        # next row's first (clipped at the array's end), unused as q >= xn
        at += 1
        nxt = np.minimum(at, X.size - 1, out=at)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 0 or subnormal gaps
            dq = q - xj
            out = np.where(xj == q, yj, (Y[nxt] - yj) / (X[nxt] - xj) * dq + yj)
            out = np.where(j < 0, yj + self.left[:, None] * dq, out)
            return np.where(q > xn, yn + self.right[:, None] * (q - xn), out)

    def nondecreasing(self) -> np.ndarray:
        """Per row: no tail slope and no step between breakpoints falls by
        more than MONOTONE_TOL (relative to the value, at least 1)."""
        tol = MONOTONE_TOL
        falls = self.Y[:, 1:] - self.Y[:, :-1] < -tol * np.maximum(1.0, np.abs(self.Y[:, :-1]))
        falls &= self.valid[:, 1:]
        return (self.left >= -tol) & (self.right >= -tol) & ~falls.any(axis=1)

    def least_roots(self) -> np.ndarray:
        """Per row, the least root of a nondecreasing function that changes
        sign: the left endpoint of its zero set.  RowError names the first
        row that fails a check."""
        X, Y, left, right = self.X, self.Y, self.left, self.right
        nonneg = (Y >= 0.0) & self.valid
        found, up = nonneg.any(axis=1), Y[:, 0] >= 0.0
        _check(~self.nondecreasing(), "least_root requires a nondecreasing function")
        _check(up & (left <= 0.0) & (Y[:, 0] == 0.0), "zero set is unbounded below")
        _check(up & (left <= 0.0), "function is positive everywhere")
        _check(~found & (right <= 0.0), "function is negative everywhere")
        r, i, last = np.arange(X.shape[0]), np.argmax(nonneg, axis=1), self.n - 1
        with np.errstate(all="ignore"):  # each row uses one of the three
            # ys[i-1] < 0 <= ys[i]; interpolate inside the segment
            t = -Y[r, i - 1] / (Y[r, i] - Y[r, i - 1])
            out = np.where(found, X[r, i - 1] + t * (X[r, i] - X[r, i - 1]),
                           X[r, last] - Y[r, last] / right)
            return np.where(up, X[:, 0] - Y[:, 0] / left, out)

    def simplify(self) -> "PWLBatch":
        """Drop interior breakpoints that interpolation reproduces within
        SIMPLIFY_TOL (relative to the value, at least 1).

        The rule is sequential: point i is tested against the line from the
        last point kept before it to point i + 1.  As keep[i] depends only on
        keep[:i], iterating the rule on all points at once, from "keep all"
        until the mask stops changing, gives the same mask.
        """
        X, Y = self.X, self.Y
        rows, width = X.shape
        cols = np.arange(1, width - 1)
        interior = cols < (self.n - 1)[:, None]
        x, y, x_next, y_next = X[:, 1:-1], Y[:, 1:-1], X[:, 2:], Y[:, 2:]
        tol = SIMPLIFY_TOL * np.maximum(1.0, np.abs(y))

        def rule(x_prev, y_prev, r=slice(None)):
            with np.errstate(invalid="ignore"):  # the padding
                lin = y_prev + (x[r] - x_prev) / (x_next[r] - x_prev) * (y_next[r] - y_prev)
                return ~interior[r] | ~(np.abs(lin - y[r]) <= tol[r])

        # the first pass keeps every point; rows it leaves whole have converged
        keep = rule(X[:, :-2], Y[:, :-2])
        todo = np.flatnonzero(~keep.all(axis=1))
        while todo.size:
            kept_at = np.where(keep[todo], cols, 0)
            prev = np.zeros_like(kept_at)
            prev[:, 1:] = kept_at[:, :-1]
            np.maximum.accumulate(prev, axis=1, out=prev)
            new = rule(X[todo[:, None], prev], Y[todo[:, None], prev], todo)
            changed = np.any(new != keep[todo], axis=1)
            keep[todo] = new
            todo = todo[changed]
        padded = np.ones((rows, width), dtype=bool)
        padded[:, 1:-1] = keep
        return PWLBatch._pack(X, Y, padded & self.valid, self.left, self.right)

    def combine(self, members, weights, group=None) -> "PWLBatch":
        """Weighted sums of rows, simplified.

        Output row o sums the rows ``members[group[o]]`` (group default o)
        with the weights ``weights[o]``.  A group's breakpoints are the union
        of its members', each kept when more than MERGE_TOL above its sorted
        predecessor; the values accumulate from zero in member order.  All
        members are evaluated in one call, their rows padded to the widest.
        """
        members, weights = np.asarray(members), np.asarray(weights, dtype=float)
        n_groups, m = members.shape
        group = np.arange(n_groups) if group is None else np.asarray(group)
        merged = np.sort(self.X[members].reshape(n_groups, m * self.X.shape[1]), axis=1)
        grid = PWLBatch._pack(merged, merged, _spaced(merged) & np.isfinite(merged), None, None)
        # the padding repeats each row's last point, so that rows stay sorted
        q = np.where(grid.valid, grid.X, grid.X[np.arange(n_groups), grid.n - 1][:, None])
        # member i of every group at its group's grid is at[i]
        at = self.take(members.T.ravel())(np.tile(q, (m, 1))).reshape(m, n_groups, q.shape[1])
        ys, ls, rs = np.zeros((group.size, q.shape[1])), np.zeros(group.size), np.zeros(group.size)
        for i in range(m):
            w, rows = weights[:, i], members[group, i]
            ys += w[:, None] * at[i][group]
            ls += w * self.left[rows]
            rs += w * self.right[rows]
        return PWLBatch(grid.X[group], ys, grid.n[group], ls, rs).simplify()

    @classmethod
    def stitch(cls, pieces: list["PWLBatch"], knots) -> "PWLBatch":
        """Row r is ``pieces[i]`` (its row r) on [knots[r, i-1], knots[r, i]],
        unbounded at the ends, simplified.

        A row's knots must be nondecreasing; equal knots make the pieces
        between them empty.  At each knot the nearest non-empty piece to its
        left and the piece to its right must agree within CONTINUITY_TOL.
        RowError names the first row that breaks a rule.  All pieces are
        evaluated at the knots in one call on their concatenation.
        """
        knots = np.asarray(knots, dtype=float)
        _check(np.any(knots[:, 1:] < knots[:, :-1], axis=1), "knots must be nondecreasing")
        # piece i spans edges i and i + 1; at[i][r, e] is piece i at edge e
        edges = np.full((knots.shape[0], knots.shape[1] + 2), np.inf)
        edges[:, 0], edges[:, 1:-1] = -np.inf, knots
        at = cls.concat(pieces)(np.tile(edges, (len(pieces), 1))).reshape(len(pieces), *edges.shape)
        for k in range(1, len(pieces)):
            a, b = at[k - 1][:, k], at[k][:, k]
            for i in range(k - 2, -1, -1):  # an empty piece i + 1 hands over to piece i
                a = np.where(edges[:, i + 1] == edges[:, k], at[i][:, k], a)
            _check(np.abs(a - b) > CONTINUITY_TOL * np.maximum(1.0, np.abs(a)),
                   lambda r: f"pieces disagree at knot {edges[r, k]}: {a[r]} vs {b[r]}")
        # each piece gives its left knot, its breakpoints strictly between its
        # knots and its right knot, so the parts come in sorted order
        parts = []
        for i, p in enumerate(pieces):
            lo, hi = edges[:, i : i + 1], edges[:, i + 1 : i + 2]
            parts += [(lo, at[i][:, i : i + 1], np.isfinite(lo)),
                      (p.X, p.Y, (p.X > lo) & (p.X < hi) & p.valid),
                      (hi, at[i][:, i + 1 : i + 2], np.isfinite(hi))]
        joined = cls._pack(*(np.concatenate(c, axis=1) for c in zip(*parts)),
                           pieces[0].left, pieces[-1].right)
        keep = _spaced(joined.X) & joined.valid
        return cls._pack(joined.X, joined.Y, keep, joined.left, joined.right).simplify()
