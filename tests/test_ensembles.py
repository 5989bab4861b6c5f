import math

import numpy as np
import pytest

from mpvesd.ensembles import (
    BadSpec,
    DecompositionFailure,
    EntryLaw,
    SigmaSpec,
    build_sigma,
    decompose,
    gram_eigh,
    sample_separable,
    sample_signal_model,
    sample_X,
    sample_Y,
    signal_plant,
    truncate_entries,
)


class TestEntryLaws:
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher",
                                      "pareto_symmetric"])
    def test_mean_variance_normalization(self, kind):
        rng = np.random.default_rng(100)
        x = EntryLaw(kind).sample(rng, 10 ** 6)
        kurt = np.mean(x ** 4)
        assert abs(x.mean()) < 3.0 * math.sqrt(max(kurt, 1.0)) / 1000
        assert abs(x.var() - 1.0) < 3.0 * math.sqrt(abs(kurt - 1.0) + 0.1) / 1000

    def test_pareto_tail_constant(self):
        law = EntryLaw("pareto_symmetric", 6.0)
        rng = np.random.default_rng(42)
        x = law.sample(rng, 10 ** 6)
        scaled = np.mean(np.abs(x) >= 3.0) * 3.0 ** 6
        assert 0.5 < scaled < 2.0

    def test_pareto_tail_start_consistency(self):
        law = EntryLaw("pareto_symmetric", 6.0)
        rng = np.random.default_rng(43)
        x = law.sample(rng, 10 ** 6)
        s0 = law.tail_start
        for s in (1.5 * s0, 2.0 * s0):
            emp = np.mean(np.abs(x) >= s)
            assert emp == pytest.approx(s ** -6.0, rel=0.15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EntryLaw("cauchy")

    def test_rademacher_values(self):
        rng = np.random.default_rng(1)
        x = EntryLaw("rademacher").sample(rng, 1000)
        assert set(np.unique(x)) == {-1.0, 1.0}


class TestSampleX:
    def test_seed_determinism_bitwise(self):
        a = sample_X(20, 30, EntryLaw("pareto_symmetric"), 7)
        b = sample_X(20, 30, EntryLaw("pareto_symmetric"), 7)
        assert np.array_equal(a, b)

    def test_entry_scaling(self):
        M = N = 200
        X = sample_X(M, N, EntryLaw("gaussian"), 5)
        assert abs(X.mean()) < 4.0 / math.sqrt(M * N * N)
        assert (N * X.var()) == pytest.approx(1.0, abs=0.05)

    def test_pareto_entries_tail(self):
        N = 1000
        X = sample_X(1000, N, EntryLaw("pareto_symmetric", 6.0), 9)
        scaled = np.mean(np.abs(math.sqrt(N) * X) >= 3.0) * 3.0 ** 6
        assert 0.5 < scaled < 2.0


class TestTruncate:
    def test_small_phi_keeps_bounded_entries(self):
        X = sample_X(50, 100, EntryLaw("rademacher"), 3)
        out, count = truncate_entries(X, 0.01)
        assert count == 0
        assert np.array_equal(out, X)

    def test_gaussian_phi01_never_truncates_at_N400(self):
        hits = 0
        for trial in range(100):
            X = sample_X(200, 400, EntryLaw("gaussian"), trial)
            _, count = truncate_entries(X, 0.1)
            hits += count
        assert hits == 0

    def test_all_ones_zeroed(self):
        X = np.ones((5, 8))
        out, count = truncate_entries(X, 0.4)  # 8^-0.4 < 1
        assert count == 40
        assert np.all(out == 0.0)

    def test_phi_range_guard(self):
        with pytest.raises(ValueError):
            truncate_entries(np.ones((2, 2)), 0.5)


class TestBuildSigma:
    def test_identity_spec(self):
        diag, U = build_sigma(SigmaSpec(blocks=((1.0, 8),)), 8)
        assert np.array_equal(diag, np.ones(8))
        assert U is None

    def test_half_fours(self):
        diag, _ = build_sigma(SigmaSpec(blocks=((4.0, 4), (1.0, 4))), 8)
        assert diag.tolist() == [4.0] * 4 + [1.0] * 4

    def test_rotation_orthogonal(self):
        diag, U = build_sigma(SigmaSpec(blocks=((1.0, 30),), rotate_seed=5), 30)
        assert np.max(np.abs(U @ U.T - np.eye(30))) < 1e-10

    def test_count_mismatch(self):
        with pytest.raises(BadSpec):
            build_sigma(SigmaSpec(blocks=((1.0, 3),)), 8)


@pytest.fixture(scope="module")
def xdec():
    X = sample_X(30, 50, EntryLaw("gaussian"), 17)
    return X, decompose(X, None, seed=17)


class TestDecompose:

    def test_eigenvalues_match_singular_values(self, xdec):
        X, dec = xdec
        s = np.linalg.svd(X, compute_uv=False)
        assert np.allclose(dec.lambdas_q1[:30], np.sort(s ** 2)[::-1],
                           atol=1e-10)

    def test_trace_equality(self, xdec):
        X, dec = xdec
        assert dec.lambdas_q1.sum() == pytest.approx(dec.lambdas_q2.sum(),
                                                     rel=1e-8)

    def test_reconstruction(self, xdec):
        X, dec = xdec
        Q1 = X @ X.T
        R = dec.basis_q1 @ np.diag(dec.lambdas_q1) @ dec.basis_q1.T
        assert np.max(np.abs(Q1 - R)) < 1e-8

    def test_shared_nonzero_spectrum(self, xdec):
        _, dec = xdec
        K = 30
        rel = np.abs(dec.lambdas_q1[:K] - dec.lambdas_q2[:K]) \
            / np.abs(dec.lambdas_q1[:K])
        assert rel.max() < 1e-8

    def test_kernel_count(self, xdec):
        _, dec = xdec
        assert np.sum(dec.lambdas_q2 < 1e-10) >= 50 - 30
        assert np.sum(dec.lambdas_q1 > 1e-10) <= 30

    def test_bases_orthonormal(self, xdec):
        _, dec = xdec
        for B in (dec.basis_q1, dec.basis_q2):
            assert np.max(np.abs(B.T @ B - np.eye(B.shape[0]))) < 1e-10

    def test_sigma_weighting(self):
        X = sample_X(10, 12, EntryLaw("gaussian"), 3)
        sig = np.concatenate([np.full(5, 4.0), np.ones(5)])
        dec = decompose(X, sig)
        Y = np.sqrt(sig)[:, None] * X
        want = np.sort(np.linalg.eigvalsh(Y.T @ Y))[::-1]
        assert np.allclose(dec.lambdas_q2, want, atol=1e-10)


class TestTrialKernel:
    M, N = 12, 20
    SIGMA = np.concatenate([np.full(6, 4.0), np.ones(6)])

    def _Y(self, seed=6):
        return sample_Y(np.random.default_rng(seed), self.M, self.N,
                        EntryLaw("gaussian"), self.SIGMA)

    @pytest.mark.parametrize("side", ["q1", "q2"])
    def test_matches_decompose(self, side):
        dec = decompose(sample_X(self.M, self.N, EntryLaw("gaussian"), 6),
                        self.SIGMA)
        want_lam, want_basis = ((dec.lambdas_q1, dec.basis_q1) if side == "q1"
                                else (dec.lambdas_q2, dec.basis_q2))
        lam, basis = gram_eigh(self._Y(), side)
        assert np.all(np.diff(lam) >= 0)
        v = np.random.default_rng(2).standard_normal(len(lam))
        v /= np.linalg.norm(v)
        weights = (basis.T @ v) ** 2
        np.testing.assert_allclose(lam[::-1], want_lam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights[::-1], (want_basis.T @ v) ** 2,
                                   rtol=0, atol=1e-12)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["q1", "q2"])
    def test_eigenvalues_only(self, side):
        Y = self._Y()
        lam = gram_eigh(Y, side, vectors=False)
        np.testing.assert_allclose(lam, gram_eigh(Y, side)[0], rtol=0,
                                   atol=1e-12)

    def test_sampler_scales_rows(self):
        X = sample_Y(np.random.default_rng(6), self.M, self.N,
                     EntryLaw("gaussian"))
        assert np.array_equal(self._Y(), np.sqrt(self.SIGMA)[:, None] * X)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            gram_eigh(self._Y(), "q3")

    def test_solver_failure_typed(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(DecompositionFailure):
            gram_eigh(self._Y(), "q1")


class TestSeparable:
    def test_identity_factors(self):
        X = sample_X(10, 14, EntryLaw("gaussian"), 1)
        assert np.array_equal(sample_separable(None, None, X), X)

    def test_column_norm_scaling(self):
        # temporal sqrt factor blocks of 1 and 2 scale squared norms by 4
        M, N = 400, 600
        X = sample_X(M, N, EntryLaw("gaussian"), 2)
        sigma2 = np.concatenate([np.ones(N // 2), 4.0 * np.ones(N // 2)])
        Y = sample_separable(None, sigma2, X)
        norms = (Y ** 2).sum(axis=0)
        ratio = norms[N // 2:].mean() / norms[: N // 2].mean()
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_scalar_spatial_factor(self):
        X = sample_X(8, 10, EntryLaw("gaussian"), 4)
        sigma2 = np.linspace(1.0, 2.0, 10)
        Y1 = sample_separable(3.0 * np.ones(8), sigma2, X)
        Y2 = math.sqrt(3.0) * sample_separable(None, sigma2, X)
        assert np.allclose(Y1, Y2, atol=1e-12)


class TestSignalModel:
    def test_k_zero_is_pure_noise(self):
        A = np.zeros((20, 0))
        X = sample_signal_model(A, 30, EntryLaw("rademacher"),
                                EntryLaw("gaussian"), seed=5)
        ss = np.random.SeedSequence(5)
        _, z_stream = ss.spawn(2)
        Z = EntryLaw("gaussian").sample(np.random.default_rng(z_stream),
                                        (20, 30)) / math.sqrt(30)
        assert np.array_equal(X, Z)

    def test_single_column_population_covariance(self):
        c = 1.5
        M, N = 6, 10 ** 5
        A = np.zeros((M, 1))
        A[0, 0] = c
        X = sample_signal_model(A, N, EntryLaw("rademacher"),
                                EntryLaw("gaussian"), seed=8)
        # columns have covariance (I + c^2 e1 e1^T)/N, so X X^T estimates it
        want = np.eye(M)
        want[0, 0] += c * c
        assert np.max(np.abs(X @ X.T - want)) < 0.05

    def test_plant_construction(self):
        rng = np.random.default_rng(12)
        A, positions, amps = signal_plant(200, 10, rng)
        assert len(set(positions.tolist())) == 10
        assert np.all((amps >= 0.4) & (amps <= 0.8))
        G = A @ A.T
        diag = np.diag(G)
        assert np.allclose(diag[positions], amps ** 2, atol=1e-12)
        off = G.copy()
        off[positions[:, None], positions[None, :]] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_signal_noise_streams_independent(self):
        # changing k must not change the noise stream
        A0 = np.zeros((15, 0))
        rng = np.random.default_rng(3)
        A1, _, _ = signal_plant(15, 2, rng)
        X0 = sample_signal_model(A0, 20, EntryLaw("rademacher"),
                                 EntryLaw("gaussian"), seed=9)
        X1 = sample_signal_model(A1, 20, EntryLaw("rademacher"),
                                 EntryLaw("gaussian"), seed=9)
        ss = np.random.SeedSequence(9)
        s_stream, z_stream = ss.spawn(2)
        Z = EntryLaw("gaussian").sample(np.random.default_rng(z_stream),
                                        (15, 20)) / math.sqrt(20)
        S = EntryLaw("rademacher").sample(np.random.default_rng(s_stream),
                                          (2, 20)) / math.sqrt(20)
        assert np.array_equal(X0, Z)
        assert np.allclose(X1, A1 @ S + Z, atol=1e-15)
