"""Step-distribution VESD curves, Kolmogorov distances, and rate fits.

The eigenvector empirical spectral distribution of a covariance matrix, seen
from a unit test vector v, places mass |<eigenvector, v>|^2 at each
eigenvalue.  Distances to limiting laws are measured in sup norm, evaluated
exactly at jump points from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """Test vector length does not match the requested side."""


class NotNormalized(ValueError):
    """Distribution total mass is not one."""


class InsufficientData(ValueError):
    """Too few distinct sample sizes for a rate fit."""


@dataclass(frozen=True, eq=False)
class WeightedStepCDF:
    """Right-continuous step distribution: jumps at xs with weights ws."""

    xs: np.ndarray
    ws: np.ndarray
    total: float

    @classmethod
    def from_jumps(cls, xs, ws) -> "WeightedStepCDF":
        xs = np.asarray(xs, dtype=float)
        ws = np.asarray(ws, dtype=float)
        if xs.shape != ws.shape or xs.ndim != 1:
            raise ValueError("jump locations and weights must be 1-d and equal length")
        if np.any(ws < -1e-15):
            raise ValueError("negative jump weight")
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        ws = np.maximum(ws[order], 0.0)
        # merge duplicate jump locations
        if xs.size and np.any(np.diff(xs) == 0.0):
            uniq, inv = np.unique(xs, return_inverse=True)
            merged = np.zeros_like(uniq)
            np.add.at(merged, inv, ws)
            xs, ws = uniq, merged
        return cls(xs=xs, ws=ws, total=float(ws.sum()))

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.ws)

    def __call__(self, x):
        """F(x), right-continuous."""
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right")
        cum = np.concatenate(([0.0], self.cumulative))
        out = cum[idx]
        if np.ndim(x) == 0:
            return float(out)
        return out

    def left(self, x):
        """F(x-), the left limit."""
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="left")
        cum = np.concatenate(([0.0], self.cumulative))
        out = cum[idx]
        if np.ndim(x) == 0:
            return float(out)
        return out

    def scale(self, c: float) -> "WeightedStepCDF":
        """Push forward under x -> c*x for c > 0."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return WeightedStepCDF.from_jumps(self.xs * c, self.ws)

    @classmethod
    def average(cls, parts: Sequence["WeightedStepCDF"]) -> "WeightedStepCDF":
        """Equal-weight mixture (pointwise average of the CDFs)."""
        if not parts:
            raise ValueError("nothing to average")
        xs = np.concatenate([p.xs for p in parts])
        ws = np.concatenate([p.ws for p in parts]) / len(parts)
        return cls.from_jumps(xs, ws)


def vesd_from_spectrum(lambdas, weights,
                       zero_tol: float = 1e-10) -> WeightedStepCDF:
    """Step CDF with jumps ``weights`` at ``lambdas``, those below zero_tol
    lumped into one jump at zero (the law's zero atom, not 1e-16 jitter)."""
    zero = lambdas < zero_tol
    xs = np.concatenate(([0.0], lambdas[~zero]))
    ws = np.concatenate(([weights[zero].sum()], weights[~zero]))
    return WeightedStepCDF.from_jumps(xs, ws)


def vesd_curve(dec, v, side: str = "q1", zero_tol: float = 1e-10) -> WeightedStepCDF:
    """VESD of Q1 or Q2 from a decomposition, for a unit test vector:
    weights |<eigvec, v>|^2 at the eigenvalues."""
    if side == "q1":
        lambdas, basis = dec.lambdas_q1, dec.basis_q1
    elif side == "q2":
        lambdas, basis = dec.lambdas_q2, dec.basis_q2
    else:
        raise ValueError(f"side must be 'q1' or 'q2', got {side!r}")
    v = np.asarray(v)
    if v.shape != (basis.shape[0],):
        raise DimensionMismatch(
            f"vector length {v.shape} does not match side {side} dimension "
            f"{basis.shape[0]}")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-10:
        raise NotNormalized(f"test vector norm {nrm} is not 1 within 1e-10")
    weights = np.abs(basis.conj().T @ v) ** 2
    return vesd_from_spectrum(lambdas, weights, zero_tol)


def _check_normalized(F: WeightedStepCDF):
    if abs(F.total - 1.0) > 1e-8:
        raise NotNormalized(f"total mass {F.total} is not 1 within 1e-8")


def kolmogorov(F: WeightedStepCDF, G) -> float:
    """Exact sup |F - G| for a step CDF against a step or monotone CDF.

    The sup of |step - monotone| is attained at a jump point of one of the
    arguments, approached from the left or the right; both one-sided values
    are evaluated at every candidate jump (plus zero, where laws may carry
    an atom).
    """
    _check_normalized(F)
    if isinstance(G, WeightedStepCDF):
        _check_normalized(G)
        pts = np.union1d(F.xs, G.xs)
        right = np.abs(F(pts) - G(pts))
        left = np.abs(F.left(pts) - G.left(pts))
        return float(max(right.max(initial=0.0), left.max(initial=0.0)))
    pts = np.union1d(F.xs, [0.0])
    g = np.asarray(G(pts), dtype=float)
    # G is continuous except for a possible atom at zero: G(0-) = 0
    g_left = np.where(pts == 0.0, 0.0, g)
    right = np.abs(F(pts) - g)
    left = np.abs(F.left(pts) - g_left)
    return float(max(right.max(initial=0.0), left.max(initial=0.0)))


@dataclass(frozen=True)
class RatePoint:
    """One Monte Carlo rate measurement: sample size and distance."""

    N: int
    value: float

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"value must be in (0, 1], got {self.value}")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def loglog_fit(points: Sequence[RatePoint], mode: str = "mean",
               bins: int = 8, min_distinct: int = 5) -> RateFit:
    """Least-squares slope of log(value) against log(N).

    mode='upper_envelope' first keeps only the largest value inside each of
    ``bins`` log-spaced N-bins, then regresses on those envelope points.
    Fits on fewer than ``min_distinct`` distinct N raise InsufficientData;
    callers fitting short schedules may relax the floor (never below 2).
    """
    ns = np.array([p.N for p in points], dtype=float)
    vals = np.array([p.value for p in points], dtype=float)
    if len(set(ns)) < max(2, min_distinct):
        raise InsufficientData(
            f"need >= {max(2, min_distinct)} distinct N, got {len(set(ns))}")
    if mode == "upper_envelope":
        edges = np.geomspace(ns.min(), ns.max(), bins + 1)
        edges[-1] *= 1.0 + 1e-12
        keep_n, keep_v = [], []
        which = np.digitize(ns, edges) - 1
        for b in range(bins):
            mask = which == b
            if mask.any():
                i = np.argmax(np.where(mask, vals, -np.inf))
                keep_n.append(ns[i])
                keep_v.append(vals[i])
        ns, vals = np.array(keep_n), np.array(keep_v)
    elif mode != "mean":
        raise ValueError(f"unknown mode {mode!r}")
    lx, ly = np.log(ns), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=resid)


def coordinate_profile(lambdas, basis, reference=None,
                       zero_tol: float = 1e-10) -> np.ndarray:
    """Kolmogorov distance of every coordinate VESD to a reference CDF.

    ``reference`` is a callable CDF; None means the coordinate-averaged VESD
    (which equals the ESD by the trace identity).  Vectorized across all
    coordinates sharing the same jump locations.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    order = np.argsort(lambdas)
    lam = lambdas[order]
    W = np.abs(basis[:, order]) ** 2          # rows: coordinates
    zero = lam < zero_tol
    if zero.any():
        lam = np.concatenate(([0.0], lam[~zero]))
        W = np.concatenate((W[:, zero].sum(axis=1, keepdims=True),
                            W[:, ~zero]), axis=1)
    cum = np.cumsum(W, axis=1)
    if reference is None:
        # shared jump locations: the sup is attained at a right limit
        ref = cum.mean(axis=0)
        return np.abs(cum - ref).max(axis=1)
    g = np.asarray(reference(lam), dtype=float)
    # reference is continuous away from a possible atom at zero
    g_left = g.copy()
    if lam[0] == 0.0:
        g_left[0] = 0.0
    cum_left = np.concatenate((np.zeros((cum.shape[0], 1)), cum[:, :-1]), axis=1)
    d_right = np.abs(cum - g).max(axis=1)
    d_left = np.abs(cum_left - g_left).max(axis=1)
    return np.maximum(d_right, d_left)
