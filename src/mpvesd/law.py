"""Deformed Marchenko-Pastur law solved from a weighted-atom population spectrum.

The limiting spectral law of a sample covariance matrix with population
spectrum ``pi = sum_t w_t delta_{sigma_t}`` and aspect ratio ``d = N/M`` is
encoded by its Stieltjes transform ``m(z)``, the unique solution of

    1/m(z) = -z + (1/d) * sum_t w_t * sigma_t / (1 + m(z) sigma_t)

with ``Im m >= 0`` and ``Im(z m) >= 0`` on the upper half plane.  Off the
real axis (``solve_m2c``: resolvent, local laws) a damped fixed-point
iteration with continuation in eta finds it.  On the real axis no eta enters:
the support edges are the critical values of the inverse map z(m), bracketed
between its poles -1/sigma_t (Silverstein & Choi 1995; Ledoit & Wolf 2017,
"Numerical implementation of the QuEST function"), and the density is
Im m / pi at the root with Im m > 0 of the equation at eta = 0, by Newton.
The CDF integrates it in each component's cosine parameter, which at the
hard edge of d = 1 is the substitution E = t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from mpvesd.errors import InputError, NumericalError


@dataclass(frozen=True)
class HalfPlanePoint:
    """Spectral parameter z = E + i*eta in the open upper half plane."""

    E: float
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise InputError(f"eta must be positive, got {self.eta}")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)


@dataclass(frozen=True)
class SolverOptions:
    """Residual tolerance of every solve, off-axis iteration controls, and
    ``eta_floor``, which lifts real z in ``SolvedLaw.m2c``."""

    tol: float = 1e-12
    max_iter: int = 10_000
    eta_floor: float = 1e-6
    damping: float = 0.5
    eta_start: float = 1.0
    eta_ratio: float = 0.5


DEFAULT_SOLVER = SolverOptions()


@dataclass(frozen=True)
class PopulationSpectrum:
    """Weighted atomic spectrum of the population covariance.

    ``atoms`` is a tuple of (sigma, weight) pairs sorted by sigma descending;
    weights must sum to one.  ``tau`` is the regularity scale: the largest
    sigma may not exceed 1/tau and at most mass 1 - tau may sit at or below
    tau.
    """

    atoms: tuple[tuple[float, float], ...]
    tau: float = 0.01

    def __post_init__(self):
        atoms = tuple(sorted(((float(s), float(w)) for s, w in self.atoms),
                             key=lambda a: -a[0]))
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise InputError("spectrum needs at least one atom")
        if not 0 < self.tau < 1:
            raise InputError(f"tau must be in (0, 1), got {self.tau}")
        if any(s <= 0 for s, _ in atoms):
            raise InputError("all sigma must be positive")
        if any(w <= 0 for _, w in atoms):
            raise InputError("all weights must be positive")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"weights sum to {total!r}, must be 1 within 1e-12")
        if atoms[0][0] > 1.0 / self.tau:
            raise InputError(
                f"sigma_max={atoms[0][0]} exceeds 1/tau={1.0 / self.tau}")
        low_mass = math.fsum(w for s, w in atoms if s <= self.tau)
        if low_mass > 1.0 - self.tau:
            raise InputError(
                f"mass {low_mass} at sigma <= tau exceeds 1 - tau")

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.array([s for s, _ in self.atoms])

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def sigma_max(self) -> float:
        return self.atoms[0][0]

    @classmethod
    def identity(cls, tau: float = 0.01) -> "PopulationSpectrum":
        return cls(atoms=((1.0, 1.0),), tau=tau)


@dataclass(frozen=True)
class LawVector:
    """Unit test vector expressed in the population eigenbasis.

    Only the squared amplitude carried by each spectrum atom matters for the
    direction-resolved law, so coordinates are grouped by atom index.
    """

    atom_indices: tuple[int, ...]
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        if len(self.atom_indices) != len(self.amplitudes):
            raise InputError("atom_indices and amplitudes length mismatch")
        total = math.fsum(abs(a) ** 2 for a in self.amplitudes)
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"squared amplitudes sum to {total!r}, not 1")

    def atom_weights(self, n_atoms: int) -> np.ndarray:
        """Squared mass per atom, as a dense vector of length n_atoms."""
        w = np.zeros(n_atoms)
        for idx, amp in zip(self.atom_indices, self.amplitudes):
            if not 0 <= idx < n_atoms:
                raise InputError(f"atom index {idx} out of range")
            w[idx] += abs(amp) ** 2
        return w

    @classmethod
    def concentrated(cls, atom_index: int) -> "LawVector":
        return cls(atom_indices=(atom_index,), amplitudes=(1.0 + 0j,))

    @classmethod
    def from_atom_weights(cls, weights: Sequence[float]) -> "LawVector":
        total = math.fsum(weights)
        idx = [i for i, w in enumerate(weights) if w > 0]
        return cls(atom_indices=tuple(idx),
                   amplitudes=tuple(math.sqrt(weights[i] / total) for i in idx))


def _as_z(z) -> complex:
    if isinstance(z, HalfPlanePoint):
        return z.z
    return complex(z)


def _picard_step(m, z, sigmas, weights, inv_d, damping):
    integ = (weights * sigmas / (1.0 + m[..., None] * sigmas)).sum(-1)
    return damping * m + (1.0 - damping) / (-z + inv_d * integ)


def _residual(m, z, sigmas, weights, inv_d):
    integ = (weights * sigmas / (1.0 + m[..., None] * sigmas)).sum(-1)
    return np.abs(1.0 / m + z - inv_d * integ)


def _newton_step(m, z, sigmas, weights, inv_d):
    denom = 1.0 + m[..., None] * sigmas
    g = -z + inv_d * (weights * sigmas / denom).sum(-1) - 1.0 / m
    gp = 1.0 / (m * m) - inv_d * (weights * sigmas ** 2 / denom ** 2).sum(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = g / gp
    return m - step


def _solve_eta_level(m, z, sigmas, weights, inv_d, opts: SolverOptions):
    """Iterate at fixed z until every entry meets the residual tolerance.

    Damped Picard bursts provide global convergence; Newton bursts finish
    to far below tolerance (pure Picard stalls near edges at tiny eta).
    Returns the refined m and the iteration count consumed.  The tolerance
    scales with |z|: the residual terms are of size |z|, so an absolute
    tolerance below |z|*eps is unreachable in floating point.
    """
    res = _residual(m, z, sigmas, weights, inv_d)
    iters = 0
    target = opts.tol * 1e-2 * max(1.0, float(np.max(np.abs(z))))
    while iters < opts.max_iter:
        if np.all(res < target):
            break
        for _ in range(40):
            m = _picard_step(m, z, sigmas, weights, inv_d, opts.damping)
            iters += 1
        res = _residual(m, z, sigmas, weights, inv_d)
        for _ in range(8):
            if np.all(res < target):
                break
            cand = _newton_step(m, z, sigmas, weights, inv_d)
            cand_res = _residual(cand, z, sigmas, weights, inv_d)
            ok = np.isfinite(cand_res) & (cand_res <= res) & (cand.imag > 0)
            m = np.where(ok, cand, m)
            res = np.where(ok, cand_res, res)
            iters += 1
    return m, res, iters


def _eta_ladder(eta_target: float, opts: SolverOptions) -> list[float]:
    if eta_target >= opts.eta_start:
        return [eta_target]
    ladder = []
    eta = opts.eta_start
    while eta > eta_target * (1.0 + 1e-12):
        ladder.append(eta)
        eta *= opts.eta_ratio
    ladder.append(eta_target)
    return ladder


def _solve_ladder(spectrum, d, E, eta: float, opts: SolverOptions):
    """m at E + i*eta for an array of E, by continuation down the eta ladder."""
    sigmas, weights = spectrum.sigmas, spectrum.weights
    inv_d = 1.0 / d
    E = np.atleast_1d(np.asarray(E, dtype=float))
    ladder = _eta_ladder(eta, opts)
    m = -1.0 / (E + 1j * ladder[0])
    budget = 0
    for rung in ladder:
        z = E + 1j * rung
        m, res, used = _solve_eta_level(m, z, sigmas, weights, inv_d, opts)
        budget = max(budget, used)
        tol = opts.tol * max(1.0, float(np.max(np.abs(z))))
        if np.any(res > tol):
            bad = int(np.sum(res > tol))
            raise NumericalError(
                f"{bad} grid points above tol={tol} at eta={rung} "
                f"(max residual {res.max():.3e})")
    return m


def solve_m2c(spectrum: PopulationSpectrum, d: float, z,
              opts: SolverOptions = DEFAULT_SOLVER) -> complex:
    """Stieltjes transform of the deformed MP law at one half-plane point."""
    zc = _as_z(z)
    if not zc.imag > 0:
        raise InputError(f"z must lie in the upper half plane, got {zc}")
    m = _solve_ladder(spectrum, d, np.array([zc.real]), zc.imag, opts)
    return complex(m[0])


# -- the law on the real axis ------------------------------------------------

_COARSE_NODES = 65      # per component, seeded off the axis
_NEWTON_STEPS = 100
_CDF_TOL = 1e-8         # change of a component's mass between halvings
_MAX_HALVINGS = 10      # of the theta spacing: at most 64 * 2^10 + 1 nodes
_BLOCK = 4096           # nodes per Newton block, bounding nodes x atoms arrays


def _components(spectrum: PopulationSpectrum, d: float):
    """Support components (lo, u_lo, hi, u_hi), ascending; u = 1/m at each edge.

    With u = 1/m, z(u) = -u + (1/d) sum_t w_t s_t u / (u + s_t) and
    z'(u) = h(u)/d - 1, h(u) = sum_t w_t s_t^2 / (u + s_t)^2.  E > 0 lies off
    the support iff E = z(u) at a real u where z decreases, so the edges are
    the values of z where h = d.  h is convex between consecutive poles -s_t
    and exceeds d within s_t sqrt(w_t/d) of each, which brackets every zero:
    below -s_max h rises from 0 to +inf (the top edge); above -s_min it falls
    from +inf to 0 (the bottom edge, at u = 0 and z = 0 for d = 1: the hard
    edge); between two poles it has two zeros iff its minimum is below d, and
    they bound a gap.  No polynomial is formed: the cost is linear in atoms.
    """
    if d <= 0:
        raise InputError(f"aspect ratio d must be positive, got {d}")
    s, idx = np.unique(spectrum.sigmas, return_inverse=True)
    w = np.bincount(idx, weights=spectrum.weights)
    ws2 = w * s * s
    near = 0.5 * s * np.sqrt(w / d)         # h > 4d this close to a pole
    far = 2.0 * s[-1] / math.sqrt(d)        # h < d/4 this far beyond them

    def h(u):
        return np.sum(ws2 / (u + s) ** 2) - d

    def dh(u):
        return -2.0 * np.sum(ws2 / (u + s) ** 3)

    def root(f, a, b):
        return brentq(f, a, b, xtol=1e-300, rtol=1e-15, maxiter=500)

    def z(u):
        return float(u * (np.sum(w * s / (u + s)) / d - 1.0))

    u_top = root(h, -s[-1] - far, -s[-1] - near[-1])
    u_bot = 0.0 if d == 1.0 else root(h, -s[0] + near[0], far)
    lows, highs = [(max(z(u_bot), 0.0), u_bot)], [(z(u_top), u_top)]
    for k in range(len(s) - 1):
        a, b = -s[k + 1] + near[k + 1], -s[k] - near[k]
        if a < b and dh(a) < 0.0 < dh(b):
            u_min = root(dh, a, b)
            if h(u_min) < 0.0:
                u1, u2 = root(h, a, u_min), root(h, u_min, b)
                lows.append((z(u1), u1))
                highs.append((z(u2), u2))
    lows.sort()
    highs.sort()
    ends = [v for pair in zip(lows, highs) for v, _ in pair]
    if any(b <= a for a, b in zip(ends, ends[1:])):
        raise NumericalError(f"support edges do not alternate: {ends}")
    return [(lo, ul, hi, uh) for (lo, ul), (hi, uh) in zip(lows, highs)]


def find_support(spectrum: PopulationSpectrum, d: float):
    """Support components [(lo, hi), ...], ascending, and the zero-atom mass.

    Edges are critical values of z(m) bracketed between its poles
    (``_components``); a component starting at 0 has a hard edge (d = 1).
    """
    comps = _components(spectrum, d)
    return [(lo, hi) for lo, _, hi, _ in comps], max(0.0, 1.0 - 1.0 / d)


def _newton_real_axis(spectrum, d, E, u, opts: SolverOptions):
    """Roots u = 1/m of z(u) = E with Im u < 0 (Im m > 0), by Newton at eta = 0.

    ``u`` holds seeds below the real axis.  A step that crosses the axis is
    reflected back: z has real coefficients, so the mirror image of a point
    heading for the conjugate root heads for the admissible one.  Since
    Im z(u) = Im u (H(u) - 1) with H(u) = (1/d) sum_t w_t s_t^2 / |u + s_t|^2,
    a non-real root has H = 1, while a real root inside the support has
    H = z'(u) + 1 > 1.  Raises NumericalError where the residual
    |z(u) - E| misses opts.tol times the size of its terms, or where H
    misses 1, which flags Newton settling on a real root: a wrong branch.
    """
    if E.size > _BLOCK:
        return np.concatenate([
            _newton_real_axis(spectrum, d, E[i:i + _BLOCK], u[i:i + _BLOCK], opts)
            for i in range(0, E.size, _BLOCK)])
    s = spectrum.sigmas
    ws, ws2 = spectrum.weights * s, spectrum.weights * s * s
    inv_d = 1.0 / d
    u = np.array(u, dtype=complex)
    res, size = np.full(E.shape, np.inf), np.ones(E.shape)
    todo = np.arange(E.size)
    for step in range(_NEWTON_STEPS + 1):
        ut = u[todo]
        a = 1.0 / (ut[:, None] + s)
        f = ut * (inv_d * (a @ ws) - 1.0) - E[todo]
        res[todo] = np.abs(f)
        # the size of the terms of f sets the floating-point floor of |f|
        size[todo] = E[todo] + np.abs(ut) * (1.0 + inv_d * (np.abs(a) @ ws))
        keep = res[todo] > 1e-2 * opts.tol * size[todo]
        todo, f, a = todo[keep], f[keep], a[keep]
        if not todo.size or step == _NEWTON_STEPS:
            break
        new = u[todo] - f / (inv_d * ((a * a) @ ws2) - 1.0)
        u[todo] = np.where(new.imag > 0, new.conj(), new)
    balance = inv_d * (np.abs(1.0 / (u[:, None] + s)) ** 2 @ ws2)
    bad = ((res > opts.tol * size) | ~(u.imag < 0)
           | (np.abs(balance - 1.0) > 1e-6))
    if bad.any():
        raise NumericalError(
            f"{int(bad.sum())} of {E.size} real-axis points failed at eta=0 "
            f"(max residual {res.max():.3e}, "
            f"max |H - 1| {np.abs(balance - 1.0).max():.3e})")
    return u


def _real_axis_u(spectrum, d, E, edges, opts: SolverOptions):
    """u = 1/m(E + i0) inside the components of ``edges``, NaN elsewhere;
    Newton is seeded off the axis at eta = 1e-3 times the component width."""
    u = np.full(E.shape, np.nan, dtype=complex)
    for lo, hi in edges:
        inside = (E > lo) & (E < hi)
        if inside.any():
            m = _solve_ladder(spectrum, d, E[inside], 1e-3 * (hi - lo), opts)
            u[inside] = _newton_real_axis(spectrum, d, E[inside], 1.0 / m, opts)
    return u


def _density(E, u, sigmas=None, wsq=None):
    """Im m / pi from u = 1/m at eta = 0, or with ``wsq`` the direction
    density Im of -sum_t wsq_t / (E (1 + m sigma_t)) / pi; inf at u = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (1.0 / u if wsq is None
             else -u / E * ((1.0 / (u[:, None] + sigmas)) @ wsq))
        return np.where(u == 0, np.inf, v.imag / np.pi)


def _rho(spectrum, d, E, edges, opts: SolverOptions, wsq=None):
    """``_density`` at E (scalar or array) on the real axis; 0 off the support
    and inf at the hard edge E = 0 of d = 1, where u = 1/m = 0."""
    E_arr = np.atleast_1d(np.asarray(E, dtype=float))
    u = _real_axis_u(spectrum, d, E_arr, edges, opts)
    if d == 1.0:
        u[E_arr == 0.0] = 0.0
    rho = np.where(np.isnan(u), 0.0, _density(E_arr, u, spectrum.sigmas, wsq))
    return float(rho[0]) if np.ndim(E) == 0 else rho


def density_rho2c(spectrum: PopulationSpectrum, d: float, E,
                  opts: SolverOptions = DEFAULT_SOLVER):
    """Continuous spectral density Im m(E + i0) / pi, 0 off the support."""
    return _rho(spectrum, d, E, find_support(spectrum, d)[0], opts)


def _component_table(spectrum, d, lo, u_lo, hi, u_hi, n, opts: SolverOptions):
    """Nodes E = lo + (hi - lo) sin^2(theta/2) of a component: theta, E, u.

    Newton at eta = 0 solves _COARSE_NODES nodes, uniform in theta, seeded
    off the axis (``_real_axis_u``), then halves every theta interval, each
    midpoint seeded from its two neighbours: u is smooth in theta up to
    square-root and hard edges.  The end nodes take the edges' critical
    points, where u is real.  Halving stops once there are at least n nodes
    and the mass changed by at most _CDF_TOL, or after _MAX_HALVINGS.  When
    the lower edge is close to 0 (d near 1), the density changes on the
    scale E - lo ~ lo, at theta ~ sqrt(2 lo / R): the coarse nodes are then
    graded geometrically down to that scale.
    """
    def nodes(t):
        return lo + (hi - lo) * np.sin(0.5 * t) ** 2

    theta = np.linspace(0.0, np.pi, _COARSE_NODES)
    feature, step = math.sqrt(4.0 * lo / (hi - lo)), np.pi / (n - 1)
    if 0.0 < feature < 20.0 * step:
        theta = np.union1d(theta, np.geomspace(feature / 20.0, 20.0 * step,
                                                2 * _COARSE_NODES))
    E = nodes(theta)
    E[-1] = hi
    u = np.concatenate([[u_lo], _real_axis_u(spectrum, d, E[1:-1], [(lo, hi)],
                                             opts), [u_hi]])
    mass = math.inf
    for _ in range(_MAX_HALVINGS):
        last, mass = mass, _component_cdf(theta, _density(E, u), lo, hi)[-1]
        if len(theta) >= n and abs(mass - last) <= _CDF_TOL:
            break
        mid = 0.5 * (theta[1:] + theta[:-1])
        E_mid = nodes(mid)
        u_mid = _newton_real_axis(spectrum, d, E_mid, 0.5 * (u[1:] + u[:-1]), opts)
        theta, E, u = (np.insert(x, np.arange(1, len(x)), y)
                       for x, y in ((theta, mid), (E, E_mid), (u, u_mid)))
    return theta, E, u


def _cosine_param(x, edges):
    """k*pi + theta on component k, where x = lo_k + (hi_k - lo_k) sin^2(theta/2).

    Monotone in x, flat on gaps.  The CDF tables are interpolated in it: the
    CDF is smooth in theta at square-root and hard edges, next to which the
    arctan form keeps theta accurate.
    """
    lo, hi = np.asarray(edges, dtype=float).T
    x = x[..., None]
    return 2.0 * np.arctan2(np.sqrt(np.maximum(x - lo, 0.0)),
                            np.sqrt(np.maximum(hi - x, 0.0))).sum(-1)


def _table_cdf(x, atom, edges, grid_p, cdf_val):
    """atom * 1{x >= 0} plus the continuous mass up to x, from a node table."""
    x_arr = np.asarray(x, dtype=float)
    cont = np.interp(_cosine_param(x_arr, edges), grid_p, cdf_val)
    out = np.where(x_arr >= 0, atom + cont, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def _component_cdf(theta, rho, lo, hi):
    """Mass of one component up to each node, by the trapezoid rule in theta.

    rho dE = rho R sin(theta) dtheta is smooth at square-root edges; at a hard
    edge E = (sqrt(2R) sin(theta/2))^2 is the E = t^2 substitution, and the
    finite end value is extrapolated linearly from the next two nodes.
    """
    with np.errstate(invalid="ignore"):
        f = rho * (0.5 * (hi - lo) * np.sin(theta))
    if lo == 0.0:
        f[0] = f[1] + (f[1] - f[2]) * (theta[1] - theta[0]) / (theta[2] - theta[1])
    return cumulative_trapezoid(f, theta, initial=0.0)


def _assemble_cdf(rho, grid_p, slices, edges):
    """Cumulative continuous mass at the nodes of all components."""
    vals, acc = [], 0.0
    for sl, (lo, hi) in zip(slices, edges):
        cum = acc + _component_cdf(grid_p[sl] - grid_p[sl.start], rho[sl], lo, hi)
        vals.append(cum)
        acc = float(cum[-1])
    return np.concatenate(vals)


@dataclass(frozen=True, eq=False)
class SolvedLaw:
    """Deformed MP law solved on the real axis, with node and CDF tables.

    Each component carries cosine-spaced nodes with u = 1/m(E + i0), the
    density and the cumulative mass, which ``cdf`` interpolates in the cosine
    parameter.  ``density`` and the direction laws solve the same equation at
    eta = 0; ``m2c`` stays off the axis (real z is lifted by eta_floor).
    """

    spectrum: PopulationSpectrum
    d: float
    edges: tuple[tuple[float, float], ...]
    zero_atom: float
    solver_opts: SolverOptions
    grid_E: np.ndarray          # density nodes over all components
    grid_p: np.ndarray          # k*pi + theta at the nodes: the CDF abscissa
    grid_u: np.ndarray          # u = 1/m(E + i0) at the nodes (0 at a hard edge)
    grid_rho: np.ndarray        # density at the nodes (inf at a hard edge)
    component_slices: tuple[slice, ...]
    cdf_val: np.ndarray         # cumulative continuous mass at the nodes

    # -- basic evaluators ---------------------------------------------------

    @property
    def continuous_mass(self) -> float:
        return float(self.cdf_val[-1])

    @property
    def total_mass(self) -> float:
        return self.zero_atom + self.continuous_mass

    @property
    def edge_list(self) -> np.ndarray:
        """All edges flattened, descending (a_1 > a_2 > ...)."""
        return np.sort(np.asarray(self.edges).ravel())[::-1]

    @property
    def top_edge(self) -> float:
        return self.edges[-1][1]

    def m2c(self, z, eta: float | None = None) -> complex:
        """Stieltjes transform; real z is lifted to z + i*eta_floor."""
        zc = complex(z)
        if zc.imag == 0:
            zc = complex(zc.real, eta if eta is not None else self.solver_opts.eta_floor)
        return solve_m2c(self.spectrum, self.d, zc, self.solver_opts)

    def density(self, E):
        """Continuous density Im m(E + i0) / pi, 0 off the support and inf
        at a hard edge (E = 0, d = 1)."""
        return _rho(self.spectrum, self.d, E, self.edges, self.solver_opts)

    def cdf(self, x):
        """F(x) = zero_atom * 1{x >= 0} + integral of rho up to x."""
        return _table_cdf(x, self.zero_atom, self.edges, self.grid_p, self.cdf_val)

    def quantile(self, q: float, tol: float = 1e-10) -> float:
        """Smallest x with F(x) >= q, by bisection on the cached CDF."""
        if q < -1e-12 or q > self.total_mass + 1e-9:
            raise InputError(f"level {q} outside [0, {self.total_mass}]")
        if q <= self.zero_atom:
            return 0.0
        lo, hi = 0.0, self.top_edge
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    # -- derived quantities ---------------------------------------------------

    def classical_locations(self, N: int, M: int | None = None) -> np.ndarray:
        """gamma_1 > ... > gamma_K solving 1 - F(gamma_j) = (j - 1/2)/N.

        Bisection starts at the lower edge: a level equal to the zero atom
        (M = round(N/d) rounded up) lands there, not at 0.
        """
        if M is None:
            M = int(round(N / self.d))
        if N < 1 or M < 1:
            raise InputError(
                f"classical locations need N, M >= 1, got N={N}, M={M}")
        K = min(M, N)
        j = np.arange(1, K + 1)
        levels = 1.0 - (j - 0.5) / N
        if np.any(levels < self.zero_atom - 1e-12):
            raise InputError(
                f"(j-1/2)/N up to {(K - 0.5) / N} exceeds continuous mass "
                f"{self.continuous_mass}")
        lo = np.full(K, self.edges[0][0])
        hi = np.full(K, self.top_edge)
        while np.max(hi - lo) > 1e-10:
            mid = 0.5 * (lo + hi)
            ge = self.cdf(mid) >= levels
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        return 0.5 * (lo + hi)

    def edge_regularity(self, tau: float | None = None):
        """Per-edge regularity report plus measured interior density minima."""
        if tau is None:
            tau = self.spectrum.tau
        edges = self.edge_list
        sigmas = self.spectrum.sigmas
        reports = []
        for k, a in enumerate(edges):
            others = np.delete(edges, k)
            sep = float(np.min(np.abs(a - others))) if others.size else math.inf
            m = self.m2c(a)
            margin = float(np.min(np.abs(1.0 + m * sigmas)))
            reports.append(EdgeRegularity(
                edge=float(a),
                location_ok=bool(a >= tau),
                separation=sep,
                separation_ok=bool(sep >= tau),
                stability_margin=margin,
                stability_ok=bool(margin >= tau),
            ))
        minima = []
        for sl, (lo, hi) in zip(self.component_slices, self.edges):
            E = self.grid_E[sl]
            inner = (E >= lo + 0.1 * (hi - lo)) & (E <= hi - 0.1 * (hi - lo))
            minima.append(float(self.grid_rho[sl][inner].min()) if inner.any()
                          else 0.0)
        return RegularityReport(tau=tau, edges=tuple(reports),
                                bulk_density_minima=tuple(minima))

    def direction(self, u: LawVector) -> "DirectionalLaw":
        """Direction-resolved law F(u) for a unit vector in the Sigma eigenbasis."""
        return DirectionalLaw._build(self, u)


@dataclass(frozen=True)
class EdgeRegularity:
    edge: float
    location_ok: bool
    separation: float
    separation_ok: bool
    stability_margin: float
    stability_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.location_ok and self.separation_ok and self.stability_ok


@dataclass(frozen=True)
class RegularityReport:
    tau: float
    edges: tuple[EdgeRegularity, ...]
    bulk_density_minima: tuple[float, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.all_ok for e in self.edges)


@dataclass(frozen=True, eq=False)
class DirectionalLaw:
    """CDF/density of the law restricted to one test direction."""

    law: SolvedLaw
    u: LawVector
    atom: float                 # mass at zero fixed so the total is one
    grid_rho: np.ndarray
    cdf_val: np.ndarray

    @classmethod
    def _build(cls, law: SolvedLaw, u: LawVector) -> "DirectionalLaw":
        wsq = u.atom_weights(len(law.spectrum.atoms))
        rho = _density(law.grid_E, law.grid_u, law.spectrum.sigmas, wsq)
        cdf_val = _assemble_cdf(rho, law.grid_p, law.component_slices,
                                law.edges)
        atom = max(0.0, 1.0 - float(cdf_val[-1]))
        return cls(law=law, u=u, atom=atom, grid_rho=rho, cdf_val=cdf_val)

    def density(self, E):
        law = self.law
        wsq = self.u.atom_weights(len(law.spectrum.atoms))
        return _rho(law.spectrum, law.d, E, law.edges, law.solver_opts, wsq)

    def cdf(self, x):
        return _table_cdf(x, self.atom, self.law.edges, self.law.grid_p,
                          self.cdf_val)

    @property
    def total_mass(self) -> float:
        return self.atom + float(self.cdf_val[-1])


def solve_law(spectrum: PopulationSpectrum, d: float,
              opts: SolverOptions = DEFAULT_SOLVER,
              nodes_per_component: int = 4097) -> SolvedLaw:
    """Resolve the full law on the real axis: support, density nodes, CDF.

    Edges are the critical values of the inverse map (``find_support``).  On
    each component the density is solved at eta = 0 on at least
    ``nodes_per_component`` cosine-spaced nodes (``_component_table``) and
    integrated in the cosine parameter, which keeps a hard edge's mass.
    """
    comps = _components(spectrum, d)
    tables = [_component_table(spectrum, d, *c, nodes_per_component, opts)
              for c in comps]
    edges = tuple((lo, hi) for lo, _, hi, _ in comps)
    slices, start = [], 0
    for theta, _, _ in tables:
        slices.append(slice(start, start + len(theta)))
        start += len(theta)
    grid_p = np.concatenate([k * np.pi + theta
                             for k, (theta, _, _) in enumerate(tables)])
    grid_E = np.concatenate([E for _, E, _ in tables])
    grid_u = np.concatenate([u for _, _, u in tables])
    rho = _density(grid_E, grid_u)
    cdf_val = _assemble_cdf(rho, grid_p, slices, edges)
    return SolvedLaw(
        spectrum=spectrum, d=d, edges=edges,
        zero_atom=max(0.0, 1.0 - 1.0 / d), solver_opts=opts,
        grid_E=grid_E, grid_p=grid_p, grid_u=grid_u, grid_rho=rho,
        component_slices=tuple(slices), cdf_val=cdf_val)
