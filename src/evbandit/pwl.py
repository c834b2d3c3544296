"""Piecewise-linear functions of a scalar subsidy variable.

Value differences of the single-charger subsidy problem are piecewise linear
in the subsidy, with finitely many breakpoints and linear tails.  This module
gives them a small exact-arithmetic-style calculus: pointwise combination,
stitching of case-defined pieces, and least-root extraction, which is all the
index recursion needs.

Representation: sorted breakpoints ``xs`` with values ``ys``, plus the slopes
of the two unbounded tails.  Between breakpoints the function interpolates
linearly; it is continuous by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MERGE_TOL = 1e-12
CONTINUITY_TOL = 1e-9


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
        if np.any(np.diff(xs) < 0):
            raise ValueError("breakpoints must be sorted")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls(np.array([0.0]), np.array([float(value)]), 0.0, 0.0)

    @classmethod
    def affine(cls, intercept: float, slope: float) -> "PiecewiseLinear":
        """The function intercept + slope * x."""
        return cls(np.array([0.0]), np.array([float(intercept)]), slope, slope)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.interp(x, self.xs, self.ys)
        lo = x < self.xs[0]
        hi = x > self.xs[-1]
        out[lo] = self.ys[0] + self.left_slope * (x[lo] - self.xs[0])
        out[hi] = self.ys[-1] + self.right_slope * (x[hi] - self.xs[-1])
        return float(out[0]) if scalar else out

    # -- queries -----------------------------------------------------------

    def is_nondecreasing(self, tol: float = 0.0) -> bool:
        if self.left_slope < -tol or self.right_slope < -tol:
            return False
        return not np.any(np.diff(self.ys) < -tol * np.maximum(1.0, np.abs(self.ys[:-1])))

    def least_root(self) -> float:
        """Smallest x with f(x) = 0, for a nondecreasing f that changes sign.

        Returns the left endpoint of the zero set.
        """
        if not self.is_nondecreasing(tol=1e-9):
            raise ValueError("least_root requires a nondecreasing function")
        ys, xs = self.ys, self.xs
        if ys[0] >= 0.0:
            if self.left_slope <= 0.0:
                if ys[0] == 0.0:
                    raise ValueError("zero set is unbounded below")
                raise ValueError("function is positive everywhere")
            return float(xs[0] - ys[0] / self.left_slope)
        pos = np.nonzero(ys >= 0.0)[0]
        if pos.size == 0:
            if self.right_slope <= 0.0:
                raise ValueError("function is negative everywhere")
            return float(xs[-1] - ys[-1] / self.right_slope)
        i = int(pos[0])
        # ys[i-1] < 0 <= ys[i]; interpolate inside the segment
        t = -ys[i - 1] / (ys[i] - ys[i - 1])
        return float(xs[i - 1] + t * (xs[i] - xs[i - 1]))

    def simplify(self, rel_tol: float = 1e-13) -> "PiecewiseLinear":
        """Drop interior breakpoints that interpolation reproduces anyway."""
        xs, ys = self.xs, self.ys
        if xs.size <= 2:
            return self
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
            return self
        return PiecewiseLinear(xs[keep], ys[keep], self.left_slope, self.right_slope)


def combine(funcs: list[PiecewiseLinear], weights) -> PiecewiseLinear:
    """Pointwise weighted sum, breakpoints merged within MERGE_TOL."""
    weights = np.asarray(weights, dtype=float)
    if len(funcs) != weights.size or len(funcs) == 0:
        raise ValueError("need one weight per function")
    xs = np.unique(np.concatenate([f.xs for f in funcs]))
    if xs.size > 1:
        gaps = np.diff(xs) > MERGE_TOL
        xs = xs[np.concatenate([[True], gaps])]
    ys = np.zeros_like(xs)
    ls = 0.0
    rs = 0.0
    for w, f in zip(weights, funcs):
        ys += w * f(xs)
        ls += w * f.left_slope
        rs += w * f.right_slope
    return PiecewiseLinear(xs, ys, ls, rs).simplify()


def stitch(pieces: list[PiecewiseLinear], knots) -> PiecewiseLinear:
    """Assemble a function defined piecewise on consecutive intervals.

    ``pieces[i]`` applies on [knots[i-1], knots[i]] (unbounded at the ends).
    Knots must be nondecreasing; equal knots make the middle piece empty.
    Adjacent pieces must agree at the shared knot within CONTINUITY_TOL.
    """
    knots = [float(k) for k in knots]
    if len(pieces) != len(knots) + 1:
        raise ValueError("need len(pieces) == len(knots) + 1")
    if any(b < a for a, b in zip(knots, knots[1:])):
        raise ValueError("knots must be nondecreasing")
    for i, k in enumerate(knots):
        # compare against the nearest non-empty piece to the left of the knot
        li = i
        while li > 0 and knots[li - 1] == k:
            li -= 1
        a = pieces[li](k)
        b = pieces[i + 1](k)
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
        if not seg_x:
            # unbounded piece with no interior breakpoints: anchor one point
            seg_x.append(float(p.xs[0]))
        seg_x = np.asarray(seg_x, dtype=float)
        xs_parts.append(seg_x)
        ys_parts.append(np.asarray(p(seg_x), dtype=float))
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ys = ys[order]
    if xs.size > 1:
        keep = np.concatenate([[True], np.diff(xs) > MERGE_TOL])
        xs = xs[keep]
        ys = ys[keep]
    return PiecewiseLinear(xs, ys, pieces[0].left_slope, pieces[-1].right_slope).simplify()
