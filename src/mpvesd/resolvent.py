"""Linearized resolvent, its deterministic limit, and local-law diagnostics.

The (M+N) x (M+N) block system

    B(z) = [[ -I,   Y ],        Y = Sigma^{1/2} X,
            [ Y*, -z I ]]

has inverse G(z) whose blocks are z*(Q1 - z)^{-1}, (Q2 - z)^{-1} and the
mixed products; everything the local laws control lives inside G.  Minors
used by the self-test identities are re-inverted explicitly after deleting
rows and columns, so the checks stay independent of the identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mpvesd.ensembles import apply_sqrt_sigma
from mpvesd.law import SolvedLaw


class SingularSystem(RuntimeError):
    """Block system not invertible (only possible at eta = 0)."""


class LengthMismatch(ValueError):
    """Eigenvalue and classical-location arrays differ in length."""


def block_system(Y: np.ndarray, z: complex) -> np.ndarray:
    M, N = Y.shape
    B = np.zeros((M + N, M + N), dtype=complex)
    B[:M, :M] = -np.eye(M)
    B[:M, M:] = Y
    B[M:, :M] = Y.conj().T
    B[M:, M:] = -z * np.eye(N)
    return B


@dataclass(frozen=True, eq=False)
class LinearizedResolvent:
    """G(z) = B(z)^{-1} with the I1 = rows, I2 = columns index split."""

    z: complex
    G: np.ndarray
    M: int
    N: int

    @property
    def g1(self) -> np.ndarray:
        """(Q1 - z)^{-1}, recovered from the top-left block z*G1."""
        return self.G[:self.M, :self.M] / self.z

    @property
    def g2(self) -> np.ndarray:
        """(Q2 - z)^{-1}, the bottom-right block."""
        return self.G[self.M:, self.M:]

    @property
    def top_right(self) -> np.ndarray:
        return self.G[:self.M, self.M:]

    @property
    def bottom_left(self) -> np.ndarray:
        return self.G[self.M:, :self.M]

    def m2(self) -> complex:
        """Stieltjes transform of the Q2 ESD: N^{-1} tr (Q2 - z)^{-1}."""
        return complex(np.trace(self.g2)) / self.N


def build_resolvent(X: np.ndarray, sigma, z) -> LinearizedResolvent:
    """Solve B(z) G = I by dense LU, exercising the linearization directly."""
    zc = complex(z)
    if not zc.imag > 0:
        raise ValueError(f"z must lie in the upper half plane, got {zc}")
    Y = apply_sqrt_sigma(np.asarray(X, dtype=float), sigma)
    M, N = Y.shape
    B = block_system(Y, zc)
    try:
        G = np.linalg.solve(B, np.eye(M + N, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return LinearizedResolvent(z=zc, G=G, M=M, N=N)


def minor_resolvent(Y: np.ndarray, z: complex, drop: Sequence[int]) -> np.ndarray:
    """G^(T): invert B(z) with rows/columns T removed, re-embedded as zeros."""
    M, N = Y.shape
    n = M + N
    keep = np.setdiff1d(np.arange(n), np.asarray(drop, dtype=int))
    B = block_system(Y, z)[np.ix_(keep, keep)]
    Gm = np.linalg.solve(B, np.eye(len(keep), dtype=complex))
    out = np.zeros((n, n), dtype=complex)
    out[np.ix_(keep, keep)] = Gm
    return out


def verify_resolvent_identities(X: np.ndarray, sigma, z,
                                i_indices: Sequence[int] | None = None,
                                mu_indices: Sequence[int] | None = None,
                                triples: Sequence[tuple[int, int, int]] | None = None,
                                rng: np.random.Generator | None = None) -> float:
    """Largest absolute residual of the minor expansion identities.

    Checks, with minors formed by explicit re-inversion:
      (a) G_bc = G^(a)_bc + G_ba G_ac / G_aa   and its diagonal-inverse form,
      (b) 1/G_ii = -1 - (Y G^(i) Y*)_ii,  1/G_mm = -z - (Y* G^(m) Y)_mm,
      (c) G_ij = G_ii G^(i)_jj (Y G^(ij) Y*)_ij  and the I2 analogue.
    """
    zc = complex(z)
    Y = apply_sqrt_sigma(np.asarray(X, dtype=float), sigma)
    M, N = Y.shape
    res = build_resolvent(X, sigma, zc)
    G = res.G
    if rng is None:
        rng = np.random.default_rng(0)
    if i_indices is None:
        i_indices = rng.choice(M, size=min(3, M), replace=False)
    if mu_indices is None:
        mu_indices = M + rng.choice(N, size=min(3, N), replace=False)
    else:
        mu_indices = np.asarray(mu_indices)
    if triples is None:
        n = M + N
        triples = []
        for _ in range(5):
            a, b, c = rng.choice(n, size=3, replace=False)
            triples.append((int(a), int(b), int(c)))

    worst = 0.0

    def upd(v):
        nonlocal worst
        worst = max(worst, float(abs(v)))

    minors: dict[tuple[int, ...], np.ndarray] = {}

    def minor(*drop: int) -> np.ndarray:
        key = tuple(sorted(drop))
        if key not in minors:
            minors[key] = minor_resolvent(Y, zc, key)
        return minors[key]

    for a, b, c in triples:
        Ga = minor(a)
        upd(G[b, c] - Ga[b, c] - G[b, a] * G[a, c] / G[a, a])
        if b != c:
            upd(1.0 / G[b, b] - 1.0 / Ga[b, b]
                + G[b, a] * G[a, b] / (G[b, b] * Ga[b, b] * G[a, a]))

    for i in np.asarray(i_indices, dtype=int):
        Gi = minor(i)[M:, M:]
        quad = Y[i, :] @ Gi @ Y[i, :].conj()
        upd(1.0 / G[i, i] + 1.0 + quad)
    for mu in np.asarray(mu_indices, dtype=int):
        col = mu - M
        Gm = minor(mu)[:M, :M]
        quad = Y[:, col].conj() @ Gm @ Y[:, col]
        upd(1.0 / G[mu, mu] + zc + quad)

    ii = np.asarray(i_indices, dtype=int)
    for i in ii:
        for j in ii:
            if i == j:
                continue
            Gij = minor(i, j)[M:, M:]
            quad = Y[i, :] @ Gij @ Y[j, :].conj()
            upd(G[i, j] - G[i, i] * minor(i)[j, j] * quad)
    mm = np.asarray(mu_indices, dtype=int)
    for mu in mm:
        for nu in mm:
            if mu == nu:
                continue
            Gmn = minor(mu, nu)[:M, :M]
            quad = Y[:, mu - M].conj() @ Gmn @ Y[:, nu - M]
            upd(G[mu, nu] - G[mu, mu] * minor(mu)[nu, nu] * quad)

    return worst


@dataclass(frozen=True, eq=False)
class DeterministicLimit:
    """Diagonal limit of G and the fluctuation control parameter."""

    z: complex
    pi_diag: np.ndarray      # M entries -(1+m sigma_i)^{-1}, then N copies of m
    psi: float
    m2c: complex

    def quadratic_form(self, u: np.ndarray, v: np.ndarray) -> complex:
        return complex(np.sum(np.conj(u) * self.pi_diag * v))


def deterministic_limit(law: SolvedLaw, sigma_diag: np.ndarray, z,
                        N: int) -> DeterministicLimit:
    """Pi(z) and Psi(z) = sqrt(Im m/(N eta)) + 1/(N eta) for the solved law."""
    zc = complex(z)
    m = law.m2c(zc)
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    pi_top = -1.0 / (1.0 + m * sigma_diag)
    pi = np.concatenate([pi_top, np.full(N, m, dtype=complex)])
    eta = zc.imag
    psi = float(np.sqrt(max(m.imag, 0.0) / (N * eta)) + 1.0 / (N * eta))
    return DeterministicLimit(z=zc, pi_diag=pi, psi=psi, m2c=m)


def spectral_domain(law: SolvedLaw, N: int, omega: float = 0.1):
    """The (E, eta) box where the local laws are asserted."""
    gamma1 = law.top_edge
    return dict(E_min=omega, E_max=2.0 * gamma1,
                eta_min=N ** (-1.0 + omega), eta_max=1.0 / omega)


def local_law_residuals(X_list: Sequence[np.ndarray], sigma_diag, law: SolvedLaw,
                        z_list: Sequence[complex],
                        rng: np.random.Generator | None = None,
                        q: float | None = None) -> list[dict]:
    """Residual/envelope records for the averaged and anisotropic laws.

    For each sample and spectral point reports |m2 - m2c| against 1/(N eta),
    the sigma-weighted diagonal average against 1/(N eta), a cross-block
    quadratic form against q + Psi, and same-block forms against
    q^2 + 1/sqrt(N eta).  q defaults to the observed max |X_ij| (support).
    """
    if rng is None:
        rng = np.random.default_rng(12345)
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    limits = {(N, complex(z)): deterministic_limit(law, sigma_diag, z, N)
              for N in sorted({X.shape[1] for X in X_list}) for z in z_list}
    records = []
    for trial, X in enumerate(X_list):
        M, N = X.shape
        u1 = rng.standard_normal(M)
        u1 /= np.linalg.norm(u1)
        v2 = rng.standard_normal(N)
        v2 /= np.linalg.norm(v2)
        w_mixed = np.concatenate([u1, v2]) / np.sqrt(2.0)
        q_val = float(np.abs(X).max()) if q is None else q
        for z in z_list:
            zc = complex(z)
            eta = zc.imag
            res = build_resolvent(X, sigma_diag, zc)
            lim = limits[N, zc]
            n_eta = N * eta
            diag = np.diagonal(res.G)

            avg_m2 = abs(res.m2() - lim.m2c)
            records.append(dict(trial=trial, E=zc.real, eta=eta,
                                statistic="averaged_m2", value=avg_m2,
                                envelope=1.0 / n_eta))
            wavg = abs(np.mean(sigma_diag * (diag[:M] - lim.pi_diag[:M])))
            records.append(dict(trial=trial, E=zc.real, eta=eta,
                                statistic="averaged_sigma_diag", value=wavg,
                                envelope=1.0 / n_eta))

            full_u = np.concatenate([u1, np.zeros(N)])
            full_v = np.concatenate([np.zeros(M), v2])
            cross = abs(np.conj(w_mixed) @ res.G @ full_v
                        - lim.quadratic_form(w_mixed, full_v))
            records.append(dict(trial=trial, E=zc.real, eta=eta,
                                statistic="anisotropic_cross", value=cross,
                                envelope=q_val + lim.psi))
            same1 = abs(np.conj(full_u) @ res.G @ full_u
                        - lim.quadratic_form(full_u, full_u))
            same2 = abs(np.conj(full_v) @ res.G @ full_v
                        - lim.quadratic_form(full_v, full_v))
            env_same = q_val ** 2 + 1.0 / np.sqrt(n_eta)
            records.append(dict(trial=trial, E=zc.real, eta=eta,
                                statistic="anisotropic_same_block_q1",
                                value=same1, envelope=env_same))
            records.append(dict(trial=trial, E=zc.real, eta=eta,
                                statistic="anisotropic_same_block_q2",
                                value=same2, envelope=env_same))
    return records


def resolvent_quadratic_q2(lambdas_q2: np.ndarray, basis_q2: np.ndarray,
                           v: np.ndarray, z_list) -> np.ndarray:
    """<v, (Q2 - z)^{-1} v> for many z from one spectral decomposition."""
    w = np.abs(basis_q2.conj().T @ v) ** 2
    z = np.asarray(z_list, dtype=complex)
    return (w[:, None] / (lambdas_q2[:, None] - z[None, :])).sum(axis=0)


def mean_resolvent_error(decs, law: SolvedLaw, v: np.ndarray,
                         z_list) -> np.ndarray:
    """|mean over samples of <v, G2 v> - m2c| on a spectral grid.

    Averaging kills the leading fluctuation, so this decays like 1/(N eta)
    rather than 1/sqrt(N eta).
    """
    z = np.asarray(z_list, dtype=complex)
    acc = np.zeros(len(z), dtype=complex)
    n = 0
    for dec in decs:
        acc += resolvent_quadratic_q2(dec.lambdas_q2, dec.basis_q2, v, z)
        n += 1
    mean = acc / n
    m_ref = np.array([law.m2c(zz) for zz in z])
    return np.abs(mean - m_ref)


def rigidity_report(lambdas: np.ndarray, gammas: np.ndarray, N: int):
    """Scaled deviations |lambda_j - gamma_j| N^{2/3} min(j, K+1-j)^{1/3}."""
    lambdas = np.asarray(lambdas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if lambdas.shape != gammas.shape:
        raise LengthMismatch(
            f"lambdas {lambdas.shape} vs gammas {gammas.shape}")
    K = len(lambdas)
    j = np.arange(1, K + 1)
    scale = N ** (2.0 / 3.0) * np.minimum(j, K + 1 - j) ** (1.0 / 3.0)
    dev = np.abs(lambdas - gammas) * scale
    return dev, float(dev.max())
