"""Independent oracles used by the tests.

Everything here recomputes expected values through a different route than
the library: closed forms, cleared-denominator polynomial roots, dense-grid
suprema, spectral projectors.  Nothing imports the solver internals.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq


def mp_edges(d: float, sigma: float = 1.0) -> tuple[float, float]:
    """Support edges sigma*(1 -+ sqrt(1/d))^2 of the single-atom law."""
    r = np.sqrt(1.0 / d)
    return sigma * (1.0 - r) ** 2, sigma * (1.0 + r) ** 2


def mp_density(E, d: float):
    """Continuous density of the single-atom law (total mass min(1, 1/d)).

    Derived from the admissible root of z m^2 + (z + 1 - 1/d) m + 1 = 0:
    Im m / pi = sqrt((lam_p - E)(E - lam_m)) / (2 pi E).
    """
    lo, hi = mp_edges(d)
    E = np.asarray(E, dtype=float)
    inside = (E > lo) & (E < hi)
    out = np.zeros_like(E)
    out[inside] = np.sqrt((hi - E[inside]) * (E[inside] - lo)) / (2 * np.pi * E[inside])
    return out


def quadratic_root(z: complex, d: float) -> complex:
    """Admissible root of the single-atom self-consistent equation."""
    roots = np.roots([z, z + 1.0 - 1.0 / d, 1.0])
    ok = [m for m in roots if m.imag > 0 and (z * m).imag > 0]
    assert len(ok) == 1, (z, roots)
    return complex(ok[0])


def cleared_poly_root(z: complex, d: float, atoms) -> complex:
    """Admissible root of the cleared-denominator polynomial for any atom list.

    Clearing denominators in 1/m = -z + (1/d) sum w s/(1+ms) gives
    z m P(m) + P(m) - (m/d) sum_t w_t s_t P_t(m) = 0 with P = prod(1+ms),
    P_t = P/(1+ms_t); degree n_atoms + 1.
    """
    prod = np.array([1.0 + 0j])
    for s, _ in atoms:
        prod = P.polymul(prod, [1.0, s])
    poly = P.polyadd(P.polymul(prod, [0.0, z]), prod)
    acc = np.zeros(1, dtype=complex)
    for t, (s, w) in enumerate(atoms):
        pt = np.array([1.0 + 0j])
        for u, (s2, _) in enumerate(atoms):
            if u != t:
                pt = P.polymul(pt, [1.0, s2])
        acc = P.polyadd(acc, pt * (w * s))
    poly = P.polyadd(poly, P.polymul([0.0, -1.0 / d], acc))
    roots = np.roots(np.asarray(poly[::-1], dtype=complex))
    ok = [m for m in roots
          if m.imag > 1e-13 and (z * m).imag > -1e-11]
    assert len(ok) == 1, (z, roots)
    return complex(ok[0])


def critical_edges(atoms, d: float) -> list[tuple[float, float]]:
    """Support components [(lo, hi), ...] as critical values of z(m).

    x > 0 lies outside the support iff x = z(m) at a real m with z'(m) > 0,
    where z(m) = -1/m + (1/d) sum_t w_t s_t / (1 + m s_t).  The sign of z'
    is sampled densely on every interval between the poles -1/s_t and 0,
    each sign change is refined by Brent's method, and the values of z
    there, sorted, alternate lower and upper edges; a list that starts with
    an upper edge gets the hard edge 0 in front (d = 1).
    """
    s = np.array([a for a, _ in atoms], dtype=float)
    w = np.array([b for _, b in atoms], dtype=float)

    def slope(m):
        m = np.asarray(m, dtype=float)
        return 1.0 / m ** 2 - (w * s * s / (1.0 + m[..., None] * s) ** 2).sum(-1) / d

    def z(m):
        return -1.0 / m + (w * s / (1.0 + m * s)).sum() / d

    poles = np.sort(np.append(-1.0 / s, 0.0))
    reach = np.logspace(-12, 12, 4000)
    samples = [poles[0] - reach[::-1], poles[-1] + reach]
    cosine = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, 4000)[1:-1])
    samples += [a + (b - a) * cosine for a, b in zip(poles, poles[1:])]
    events = []
    for ms in samples:
        g = slope(ms)
        keep = np.isfinite(g) & (g != 0.0)
        ms, g = ms[keep], g[keep]
        for i in np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:])):
            m = brentq(slope, ms[i], ms[i + 1], xtol=1e-300, rtol=1e-15)
            if z(m) > 0:
                events.append((z(m), "hi" if g[i] < 0 else "lo"))
    events.sort()
    if events[0][1] == "hi":
        events.insert(0, (0.0, "lo"))
    assert [k for _, k in events] == ["lo", "hi"] * (len(events) // 2), events
    vals = [v for v, _ in events]
    return list(zip(vals[0::2], vals[1::2]))


def dense_grid_sup(F, G, lo: float, hi: float, n: int = 10 ** 6) -> float:
    """Brute-force sup |F - G| on a dense grid plus both sides of all jumps."""
    parts = [np.linspace(lo, hi, n)]
    for H in (F, G):
        xs = getattr(H, "xs", None)
        if xs is not None:
            parts += [xs, xs - 1e-9]
    grid = np.sort(np.concatenate(parts))
    fa = np.asarray(F(grid), dtype=float)
    ga = np.asarray(G(grid), dtype=float)
    return float(np.max(np.abs(fa - ga)))


def projector_cdf(lambdas, basis, v, x) -> float:
    """<v, P_(-inf, x](Q) v> assembled from the spectral projector."""
    keep = lambdas <= x
    Pmat = basis[:, keep] @ basis[:, keep].conj().T
    return float(np.real(np.conj(v) @ Pmat @ v))
