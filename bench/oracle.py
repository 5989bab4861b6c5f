"""Reference values for the benchmark's correctness checks.

Nothing here imports mpvesd.  Every value is reached by a route the library
does not take: closed forms of the single-atom law, Gauss-Legendre
quadrature of its density in an angle variable, polynomial roots of the
cleared self-consistent equation, and support edges as critical values of
the inverse map bracketed between its poles.  It overlaps
``tests/oracles.py`` on purpose: the benchmark's reference must not move
when the test suite changes.

Conventions match the library: the law is the limit of the N x N matrix
X* Sigma X with d = N / M, and its Stieltjes transform m(z) solves

    z = -1/m + (1/d) * sum_t w_t s_t / (1 + m s_t).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq


def mp_edges(d: float, sigma: float = 1.0) -> tuple[float, float]:
    """Support edges sigma * (1 -+ d^{-1/2})^2 of the single-atom law."""
    r = d ** -0.5
    return sigma * (1.0 - r) ** 2, sigma * (1.0 + r) ** 2


def mp_zero_atom(d: float) -> float:
    """Mass at zero: the N - M surplus eigenvalues when d > 1."""
    return max(0.0, 1.0 - 1.0 / d)


def mp_density(E, d: float):
    """sqrt((hi - E)(E - lo)) / (2 pi E) on (lo, hi): mass min(1, 1/d)."""
    lo, hi = mp_edges(d)
    E = np.asarray(E, dtype=float)
    out = np.zeros_like(E)
    inside = (E > lo) & (E < hi)
    out[inside] = (np.sqrt((hi - E[inside]) * (E[inside] - lo))
                   / (2.0 * np.pi * E[inside]))
    return out


def mp_cdf(x, d: float, nodes: int = 200):
    """CDF of the single-atom law, zero atom included, by quadrature.

    With E = c - R cos(theta) the density becomes
    R^2 sin^2(theta) / (2 pi (c - R cos theta)), which stays smooth at both
    square-root edges and also at the hard edge lo = 0 of d = 1, where it
    reduces to R (1 + cos theta) / (2 pi).  Gauss-Legendre on
    [0, theta(x)] therefore converges fast for every d.
    """
    lo, hi = mp_edges(d)
    c, R = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.arccos(np.clip((c - x) / R, -1.0, 1.0))
    u, wq = legendre.leggauss(nodes)
    t = 0.5 * theta[:, None] * (u[None, :] + 1.0)
    # sin^2 t = 4 s^2 cos^2(t/2) and c - R cos t = lo + 2 R s^2, s = sin(t/2):
    # no cancellation near t = 0, and the limit there is exact
    s2 = np.sin(0.5 * t) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s2 > 0, s2 / (lo + 2.0 * R * s2),
                         0.0 if lo > 0 else 0.5 / R)
    f = 4.0 * R * R * np.cos(0.5 * t) ** 2 * ratio / (2.0 * np.pi)
    cont = 0.5 * theta * (f * wq[None, :]).sum(axis=1)
    return np.where(x >= 0.0, mp_zero_atom(d) + cont, 0.0)


def quadratic_root(z: complex, d: float) -> complex:
    """Admissible root of z m^2 + (z + 1 - 1/d) m + 1 = 0 (single atom)."""
    b = z + 1.0 - 1.0 / d
    disc = np.sqrt(complex(b * b - 4.0 * z))
    roots = ((-b + disc) / (2.0 * z), (-b - disc) / (2.0 * z))
    ok = [m for m in roots if m.imag > 0 and (z * m).imag > 0]
    if len(ok) != 1:
        raise ValueError(f"no unique admissible root at z={z}: {roots}")
    return complex(ok[0])


def _prod_poly(sigmas, power: int, skip: int | None = None) -> np.ndarray:
    out = np.array([1.0])
    for u, s in enumerate(sigmas):
        if u != skip:
            for _ in range(power):
                out = P.polymul(out, [1.0, s])
    return out


def cleared_poly_root(z: complex, d: float, atoms) -> complex:
    """Admissible root of z m P(m) + P(m) - (m/d) sum_t w_t s_t P_t(m) = 0.

    P = prod_t (1 + m s_t) and P_t = P / (1 + m s_t): the self-consistent
    equation with its denominators cleared, a polynomial of degree
    n_atoms + 1.  Reliable for a handful of atoms.
    """
    sigmas = [s for s, _ in atoms]
    prod = _prod_poly(sigmas, 1).astype(complex)
    poly = P.polyadd(P.polymul(prod, [0.0, z]), prod)
    acc = np.zeros(1, dtype=complex)
    for t, (s, w) in enumerate(atoms):
        acc = P.polyadd(acc, _prod_poly(sigmas, 1, skip=t) * (w * s))
    poly = P.polyadd(poly, P.polymul([0.0, -1.0 / d], acc))
    roots = np.roots(np.asarray(poly[::-1], dtype=complex))
    ok = [m for m in roots if m.imag > 1e-13 and (z * m).imag > -1e-11]
    if len(ok) != 1:
        raise ValueError(f"no unique admissible root at z={z}: {roots}")
    return complex(ok[0])


def equation_residual(m: complex, z: complex, d: float, atoms) -> float:
    """|1/m + z - (1/d) sum w s / (1 + m s)|: zero at the solution."""
    s = np.array([a for a, _ in atoms])
    w = np.array([b for _, b in atoms])
    return float(abs(1.0 / m + z - (w * s / (1.0 + m * s)).sum() / d))


def inverse_map(m, d: float, atoms):
    """z(m) = -1/m + (1/d) sum_t w_t s_t / (1 + m s_t) for real m."""
    m = np.asarray(m, dtype=float)
    s = np.array([a for a, _ in atoms])
    w = np.array([b for _, b in atoms])
    return -1.0 / m + (w * s / (1.0 + m[..., None] * s)).sum(-1) / d


def _inverse_map_slope(m, d: float, s: np.ndarray, w: np.ndarray):
    m = np.asarray(m, dtype=float)
    return 1.0 / (m * m) - (w * s * s / (1.0 + m[..., None] * s) ** 2).sum(-1) / d


def _interval_samples(a: float, b: float) -> np.ndarray:
    """Points of (a, b) dense near both ends, where z'(m) runs to -inf."""
    if np.isinf(a):
        return b - np.geomspace(1e12, 1e-12, 2000)
    if np.isinf(b):
        return a + np.geomspace(1e-12, 1e12, 2000)
    ends = np.geomspace(1e-13, 0.25, 300)
    frac = np.concatenate([ends, np.linspace(0.25, 0.75, 401)[1:-1],
                           1.0 - ends[::-1]])
    return a + (b - a) * frac


def critical_edges(atoms, d: float) -> list[tuple[float, float]]:
    """Support components [lo, hi], ascending, from the inverse map.

    x > 0 lies outside the support iff x = z(m) at a real m where z is
    increasing (Silverstein & Choi 1995), so the edges are the values of z
    at the zeros of z'(m).  The zeros are bracketed on each interval
    between consecutive poles -1/s_t and 0 by sampling z' there, then
    refined by Brent's method; no polynomial is formed, so this scales to
    hundreds of atoms.  A - to + crossing of z' (ascending m) ends a
    component and a + to - crossing starts one.  With no lower edge below
    the first upper edge the component starts at the hard edge 0 (d = 1).
    """
    s = np.array([a for a, _ in atoms], dtype=float)
    w = np.array([b for _, b in atoms], dtype=float)
    poles = np.unique(np.concatenate([-1.0 / s, [0.0]]))
    bounds = np.concatenate([[-np.inf], poles, [np.inf]])
    events = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        ms = _interval_samples(a, b)
        ms = ms[(ms > a) & (ms < b)]
        g = _inverse_map_slope(ms, d, s, w)
        # an exact zero sample would hide its own sign change; its neighbours
        # still bracket it
        keep = np.isfinite(g) & (g != 0.0)
        ms, g = ms[keep], g[keep]
        for i in np.flatnonzero((g[:-1] < 0) != (g[1:] < 0)):
            root = brentq(_inverse_map_slope, ms[i], ms[i + 1], args=(d, s, w),
                          xtol=1e-300, rtol=1e-15, maxiter=500)
            value = float(inverse_map(root, d, atoms))
            if value > 0:
                events.append((value, "hi" if g[i] < 0 else "lo"))
    events.sort()
    if events and events[0][1] == "hi":
        events.insert(0, (0.0, "lo"))
    kinds = [k for _, k in events]
    if kinds != ["lo", "hi"] * (len(events) // 2) or not events:
        raise ValueError(f"edge events do not alternate: {events}")
    vals = [v for v, _ in events]
    return list(zip(vals[0::2], vals[1::2]))


def poly_critical_values(atoms, d: float) -> np.ndarray:
    """Positive critical values of z from the roots of the cleared z'(m).

    z'(m) = 0 clears to prod_t (1 + m s_t)^2
    - (m^2/d) sum_t w_t s_t^2 prod_{u != t} (1 + m s_u)^2 = 0, of degree
    2 n_atoms.  Used only to cross-check the bracketing for a few atoms.
    """
    sigmas = [s for s, _ in atoms]
    poly = _prod_poly(sigmas, 2)
    acc = np.zeros(1)
    for t, (s, w) in enumerate(atoms):
        acc = P.polyadd(acc, _prod_poly(sigmas, 2, skip=t) * (w * s * s))
    poly = P.polyadd(poly, P.polymul([0.0, 0.0, -1.0 / d], acc))
    roots = np.roots(poly[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))].real
    vals = inverse_map(real, d, atoms)
    return np.sort(vals[vals > 0])
