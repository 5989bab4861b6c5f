"""Random data matrices, population covariances, and spectral decompositions.

Entry laws are normalized to mean zero and unit variance before the 1/sqrt(N)
scaling.  Every Monte Carlo trial runs one kernel: ``sample_Y`` draws
Y = Sigma^{1/2} X, then ``gram_eigh`` forms Q1 = Y Y* (M x M) or Q2 = Y* Y
(N x N) from that one buffer, so BLAS takes its symmetric path, and
decomposes it.  ``decompose`` keeps full orthonormal eigenbases of both,
kernel vectors included, so VESD sums run over complete bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mpvesd.errors import InputError, NumericalError

ENTRY_KINDS = ("gaussian", "rademacher", "pareto_symmetric")


@lru_cache(maxsize=32)
def _pareto_params(a: float) -> tuple[float, float]:
    """(tail start t, uniform-core half width c) for unit variance.

    The symmetric density is (a/2)|x|^{-(a+1)} for |x| >= t, so
    P(|xi| >= s) = s^{-a} exactly there, plus a uniform core on [-c, c]
    carrying the remaining mass.  t is set so the tail holds second moment
    1/2 and c so the core holds the other 1/2.
    """
    if a <= 2:
        raise InputError(f"pareto tail index must exceed 2, got {a}")
    t = (2.0 * a / (a - 2.0)) ** (1.0 / (a - 2.0))
    tail_mass = t ** (-a)
    c = math.sqrt(1.5 / (1.0 - tail_mass))
    return t, c


@dataclass(frozen=True)
class EntryLaw:
    """Mean-zero unit-variance entry distribution for the data matrix."""

    kind: str = "gaussian"
    pareto_a: float = 6.0

    def __post_init__(self):
        if self.kind not in ENTRY_KINDS:
            raise InputError(f"kind must be one of {ENTRY_KINDS}, got {self.kind!r}")
        if self.kind == "pareto_symmetric" and not self.pareto_a > 2:
            raise InputError(
                f"pareto tail index a must exceed 2, got {self.pareto_a}")

    @property
    def tail_start(self) -> float:
        """s0 beyond which P(|xi| >= s) = s^{-a} holds exactly."""
        t, c = _pareto_params(self.pareto_a)
        return max(t, c)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size).astype(float) * 2.0 - 1.0
        t, c = _pareto_params(self.pareto_a)
        in_tail = rng.random(size) < t ** (-self.pareto_a)
        mag = t * rng.random(size) ** (-1.0 / self.pareto_a)
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        core = c * (2.0 * rng.random(size) - 1.0)
        return np.where(in_tail, sign * mag, core)


def sample_X(M: int, N: int, law: EntryLaw, seed) -> np.ndarray:
    """M x N matrix of i.i.d. entries from ``law`` scaled by N^{-1/2}."""
    return sample_Y(np.random.default_rng(seed), M, N, law)


def _sqrt_factor(sigma, M: int) -> np.ndarray | None:
    """Sigma^{1/2} of a diagonal Sigma given as its length-M diagonal;
    None is the identity."""
    if sigma is None:
        return None
    sigma = np.asarray(sigma)
    if sigma.shape != (M,):
        raise InputError(f"covariance diagonal shape {sigma.shape} != ({M},)")
    return np.sqrt(sigma)


def apply_sqrt_sigma(X: np.ndarray, sigma) -> np.ndarray:
    """Y = Sigma^{1/2} X for identity (None) or diagonal sigma."""
    root = _sqrt_factor(sigma, X.shape[0])
    return X if root is None else root[:, None] * X


def sample_Y(rng: np.random.Generator, M: int, N: int, entry_law: EntryLaw,
             sigma_diag: np.ndarray | None = None) -> np.ndarray:
    """Y = Sigma^{1/2} X, X = entry_law.sample(rng, (M, N)) / sqrt(N), scaled in
    place (freeing X mid-trial costs fresh pages); None is Sigma = I."""
    if M < 1 or N < 1:
        raise InputError(f"dimensions must be >= 1, got M={M}, N={N}")
    Y = entry_law.sample(rng, (M, N)) / math.sqrt(N)
    if sigma_diag is not None:
        Y *= np.sqrt(sigma_diag)[:, None]
    return Y


def gram_eigh(Y: np.ndarray, side: str, vectors: bool = True):
    """Ascending ``eigh`` of Q1 = Y Y* ('q1') or Q2 = Y* Y ('q2'), or only
    its eigenvalues (``eigvalsh``) when ``vectors`` is False.  ``np.linalg.eigh``
    is looked up per call, where the bench tracer (bench/spans.py) patches it."""
    if side not in ("q1", "q2"):
        raise InputError(f"side must be 'q1' or 'q2', got {side!r}")
    Q = Y @ Y.conj().T if side == "q1" else Y.conj().T @ Y
    try:
        return np.linalg.eigh(Q) if vectors else np.linalg.eigvalsh(Q)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class EnsembleDecomposition:
    """Full spectral data of Q1 and Q2 from one sampled X."""

    lambdas_q1: np.ndarray   # M eigenvalues, descending
    lambdas_q2: np.ndarray   # N eigenvalues, descending
    basis_q1: np.ndarray     # M x M, columns aligned with lambdas_q1
    basis_q2: np.ndarray     # N x N, columns aligned with lambdas_q2
    seed: int | None = None

    @property
    def M(self) -> int:
        return self.basis_q1.shape[0]

    @property
    def N(self) -> int:
        return self.basis_q2.shape[0]


def decompose(X: np.ndarray, sigma=None, seed: int | None = None) -> EnsembleDecomposition:
    """Full symmetric eigendecompositions of Q1 and Q2, kernels included."""
    Y = apply_sqrt_sigma(X, sigma)
    w1, V1 = gram_eigh(Y, "q1")
    w2, V2 = gram_eigh(Y, "q2")
    return EnsembleDecomposition(
        lambdas_q1=w1[::-1].copy(), lambdas_q2=w2[::-1].copy(),
        basis_q1=V1[:, ::-1].copy(), basis_q2=V2[:, ::-1].copy(), seed=seed)


def sample_separable(sigma1, sigma2, X: np.ndarray) -> np.ndarray:
    """Y = Sigma_1^{1/2} X Sigma_2^{1/2} (spatial times temporal shaping)."""
    Y = apply_sqrt_sigma(X, sigma1)
    root2 = _sqrt_factor(sigma2, X.shape[1])
    return Y if root2 is None else Y * root2[None, :]


def sample_signal_model(A: np.ndarray, N: int, s_law: EntryLaw, z_law: EntryLaw,
                        seed) -> np.ndarray:
    """Columns A s + z with independent signal and noise streams.

    Signal entries (k x N) and noise entries (M x N) are drawn from their
    laws and scaled by N^{-1/2}, matching the noise normalization of the
    sampling model.  k = 0 reduces to pure noise.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M, k = A.shape
    ss = np.random.SeedSequence(seed)
    s_stream, z_stream = ss.spawn(2)
    Z = sample_Y(np.random.default_rng(z_stream), M, N, z_law)
    if k == 0:
        return Z
    S = sample_Y(np.random.default_rng(s_stream), k, N, s_law)
    return A @ S + Z


def signal_plant(M: int, k: int, rng: np.random.Generator,
                 amp_range: tuple[float, float] = (0.4, 0.8)):
    """Planted mixing matrix A = D V with k single-coordinate spikes.

    D is M x k, zero except D[n(i), i] drawn uniformly from amp_range at k
    distinct coordinates n(i); V is a random orthogonal k x k rotation.
    Returns (A, positions, amplitudes).
    """
    positions = np.sort(rng.choice(M, size=k, replace=False))
    amps = rng.uniform(amp_range[0], amp_range[1], size=k)
    G = rng.standard_normal((k, k))
    Q, R = np.linalg.qr(G)
    V = Q * np.sign(np.diag(R))
    D = np.zeros((M, k))
    D[positions, np.arange(k)] = amps
    return D @ V, positions, amps
