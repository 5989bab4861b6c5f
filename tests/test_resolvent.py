import numpy as np
import pytest

from mpvesd.ensembles import EntryLaw, decompose, sample_X
from mpvesd.law import PopulationSpectrum, solve_law
from mpvesd.resolvent import (
    LengthMismatch,
    block_system,
    build_resolvent,
    deterministic_limit,
    local_law_residuals,
    mean_resolvent_error,
    minor_resolvent,
    resolvent_quadratic_q2,
    rigidity_report,
    spectral_domain,
    verify_resolvent_identities,
)


class TestBuildResolvent:
    def test_zero_matrix_block_inverse(self):
        z = complex(2.0, 0.7)
        res = build_resolvent(np.zeros((6, 8)), None, z)
        want = np.diag(np.concatenate([-np.ones(6), -np.ones(8) / z]))
        assert np.max(np.abs(res.G - want)) == 0.0

    def test_inverse_residual(self):
        X = sample_X(15, 25, EntryLaw("gaussian"), 2)
        z = complex(1.2, 0.4)
        res = build_resolvent(X, None, z)
        B = block_system(X, z)
        err = np.max(np.abs(res.G @ B - np.eye(40)))
        assert err < 1e-9 * np.max(np.abs(res.G))

    def test_blocks_match_direct_inverses(self):
        X = sample_X(20, 20, EntryLaw("gaussian"), 5)
        z = complex(1.5, 0.3)
        res = build_resolvent(X, None, z)
        direct2 = np.linalg.inv(X.T @ X - z * np.eye(20))
        assert np.max(np.abs(res.g2 - direct2)) < 1e-9
        direct1 = np.linalg.inv(X @ X.T - z * np.eye(20))
        assert np.max(np.abs(res.g1 - direct1)) < 1e-9

    def test_offdiagonal_block_identity(self):
        # the two product forms of the mixed block agree with G itself
        X = sample_X(12, 18, EntryLaw("gaussian"), 6)
        z = complex(0.8, 0.2)
        res = build_resolvent(X, None, z)
        g1Y = np.linalg.inv(X @ X.T - z * np.eye(12)) @ X
        Yg2 = X @ np.linalg.inv(X.T @ X - z * np.eye(18))
        assert np.max(np.abs(res.top_right - g1Y)) < 1e-8
        assert np.max(np.abs(res.top_right - Yg2)) < 1e-8

    def test_conjugate_transpose_symmetry(self):
        X = sample_X(10, 10, EntryLaw("gaussian"), 7)
        z = complex(1.0, 0.5)
        G = build_resolvent(X, None, z).G
        Bc = block_system(X, np.conj(z))
        assert np.max(np.abs(G.conj().T @ Bc - np.eye(20))) < 1e-9

    def test_requires_upper_halfplane(self):
        with pytest.raises(ValueError):
            build_resolvent(np.zeros((3, 3)), None, 1.0)

    def test_trace_identity_over_i2(self):
        X = sample_X(14, 22, EntryLaw("gaussian"), 8)
        z = complex(1.1, 0.25)
        res = build_resolvent(X, None, z)
        dec = decompose(X, None)
        want = np.sum(1.0 / (dec.lambdas_q2 - z))
        assert abs(np.trace(res.g2) - want) < 1e-8


class TestResolventIdentities:
    def test_gaussian_instances(self):
        worst = 0.0
        for k in range(10):
            X = sample_X(10, 10, EntryLaw("gaussian"), 300 + k)
            r = verify_resolvent_identities(X, None, complex(1.0, 1.0),
                                            rng=np.random.default_rng(k))
            worst = max(worst, r)
        assert worst < 1e-8

    def test_zero_matrix_scalar_case(self):
        r = verify_resolvent_identities(np.zeros((8, 8)), None,
                                        complex(1.0, 1.0))
        assert r < 1e-12

    def test_relabeling_invariance(self):
        X = sample_X(10, 10, EntryLaw("gaussian"), 42)
        z = complex(1.0, 1.0)
        i_idx = [1, 4, 7]
        mu_idx = [10, 13, 19]
        triples = [(0, 2, 3), (11, 5, 16)]
        a = verify_resolvent_identities(X, None, z, i_idx, mu_idx, triples)
        b = verify_resolvent_identities(X, None, z, list(reversed(i_idx)),
                                        list(reversed(mu_idx)),
                                        list(reversed(triples)))
        assert a == pytest.approx(b, abs=1e-15)

    def test_minor_embedding(self):
        X = sample_X(6, 6, EntryLaw("gaussian"), 1)
        Gm = minor_resolvent(X, complex(1.0, 0.5), [3])
        assert np.all(Gm[3, :] == 0) and np.all(Gm[:, 3] == 0)


class TestDeterministicLimit:
    def test_self_consistency_identity(self, mp_law_d2):
        N, M = 100, 50
        sig = np.ones(M)
        for z in (complex(1.0, 0.05), complex(2.0, 0.5), complex(0.5, 1.0)):
            lim = deterministic_limit(mp_law_d2, sig, z, N)
            lhs = -z - (M / N) * np.mean(sig * lim.pi_diag[:M])
            assert abs(lhs - 1.0 / lim.m2c) < 1e-9

    def test_identity_sigma_uniform_top_block(self, mp_law_d2):
        lim = deterministic_limit(mp_law_d2, np.ones(30), complex(1.0, 0.1), 60)
        assert np.allclose(lim.pi_diag[:30], lim.pi_diag[0])
        assert np.allclose(lim.pi_diag[30:], lim.m2c)

    def test_psi_floor_and_term_dominance(self, mp_law_d2):
        N = 400
        eta = N ** (-0.9)
        lim = deterministic_limit(mp_law_d2, np.ones(N // 2),
                                  complex(1.0, eta), N)
        assert lim.psi >= 1.0 / np.sqrt(N)
        sqrt_term = np.sqrt(lim.m2c.imag / (N * eta))
        assert sqrt_term > 1.0 / (N * eta) > 0

    def test_pi_bounded_on_domain(self, mp_law_d2):
        N = 200
        dom = spectral_domain(mp_law_d2, N)
        rng = np.random.default_rng(3)
        for _ in range(20):
            E = rng.uniform(dom["E_min"], dom["E_max"])
            eta = np.exp(rng.uniform(np.log(dom["eta_min"]),
                                     np.log(dom["eta_max"])))
            lim = deterministic_limit(mp_law_d2, np.ones(N // 2),
                                      complex(E, eta), N)
            assert np.max(np.abs(lim.pi_diag)) < 100.0


class TestHerglotzMonotonicity:
    def test_positive_imaginary_part(self):
        rng = np.random.default_rng(9)
        X = sample_X(20, 30, EntryLaw("gaussian"), 9)
        dec = decompose(X, None)
        for _ in range(20):
            v = rng.standard_normal(30)
            v /= np.linalg.norm(v)
            z = complex(rng.uniform(0.1, 3.0), rng.uniform(1e-4, 1.0))
            val = resolvent_quadratic_q2(dec.lambdas_q2, dec.basis_q2, v, [z])
            assert val[0].imag > 0

    def test_eta_times_im_nondecreasing(self):
        rng = np.random.default_rng(10)
        X = sample_X(15, 25, EntryLaw("gaussian"), 10)
        dec = decompose(X, None)
        v = rng.standard_normal(25)
        v /= np.linalg.norm(v)
        E = 1.2
        etas = np.geomspace(1e-4, 2.0, 25)
        vals = resolvent_quadratic_q2(dec.lambdas_q2, dec.basis_q2, v,
                                      E + 1j * etas)
        assert np.all(np.diff(etas * vals.imag) >= -1e-14)

    def test_dense_g_matches_spectral_form(self):
        X = sample_X(12, 16, EntryLaw("gaussian"), 11)
        dec = decompose(X, None)
        z = complex(0.9, 0.3)
        res = build_resolvent(X, None, z)
        v = np.zeros(16)
        v[4] = 1.0
        spectral = resolvent_quadratic_q2(dec.lambdas_q2, dec.basis_q2, v, [z])
        assert abs(res.g2[4, 4] - spectral[0]) < 1e-10


class TestLocalLaw:
    def test_residual_records_and_macroscopic_regime(self, mp_law_d2):
        N = 100
        M = 50
        Xs = [sample_X(M, N, EntryLaw("gaussian"), 500 + t) for t in range(3)]
        z = complex(1.0, 1.0)  # eta = omega^{-1} scale: trivial regime
        rows = local_law_residuals(Xs, np.ones(M), mp_law_d2, [z])
        by_stat = {}
        for r in rows:
            by_stat.setdefault(r["statistic"], []).append(
                r["value"] / r["envelope"])
        assert set(by_stat) == {"averaged_m2", "averaged_sigma_diag",
                                "anisotropic_cross",
                                "anisotropic_same_block_q1",
                                "anisotropic_same_block_q2"}
        for stat, ratios in by_stat.items():
            assert max(ratios) < 10.0

    def test_limits_solved_once_per_z(self, mp_law_d2, monkeypatch):
        from mpvesd import law as law_module
        N, M = 40, 20
        Xs = [sample_X(M, N, EntryLaw("gaussian"), 900 + t) for t in range(3)]
        zs = [complex(1.0, 0.5), complex(2.0, 0.1)]
        # one call per trial solves m(z) again for every trial; sharing the
        # generator keeps the test vectors of the single call
        rng = np.random.default_rng(3)
        per_trial = [dict(r, trial=t) for t, X in enumerate(Xs)
                     for r in local_law_residuals([X], np.ones(M), mp_law_d2,
                                                  zs, rng=rng)]
        calls = []
        solve = law_module.solve_m2c

        def counting(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(law_module, "solve_m2c", counting)
        rows = local_law_residuals(Xs, np.ones(M), mp_law_d2, zs,
                                   rng=np.random.default_rng(3))
        assert len(calls) == len(zs)
        assert rows == per_trial

    def test_mean_resolvent_error_decays_like_inverse_eta(self, mp_law_d2):
        N, M, trials = 200, 100, 300
        rng = np.random.default_rng(77)
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        decs = []
        for t in range(trials):
            X = sample_X(M, N, EntryLaw("gaussian"), 900 + t)
            decs.append(decompose(X, None))
        etas = np.geomspace(0.03, 0.6, 5)
        errs = mean_resolvent_error(decs, mp_law_d2, v, 1.0 + 1j * etas)
        slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
        assert -1.6 < slope < -0.4


class TestRigidity:
    def test_exact_match_gives_zeros(self):
        lam = np.array([3.0, 2.0, 1.0])
        dev, mx = rigidity_report(lam, lam, 100)
        assert np.all(dev == 0.0) and mx == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rigidity_report(np.ones(3), np.ones(4), 100)

    def test_scaling_weights(self):
        lam = np.array([3.0, 2.0, 1.0, 0.5])
        gam = lam + 0.01
        dev, _ = rigidity_report(lam, gam, 100)
        scale = 100 ** (2 / 3) * np.minimum(np.arange(1, 5),
                                            np.arange(4, 0, -1)) ** (1 / 3)
        assert np.allclose(dev, 0.01 * scale)

    def test_edge_dominates_unscaled_profile(self, mp_law_d2):
        # averaged over trials, the raw |lambda_j - gamma_j| peaks at the edges
        N, M, trials = 400, 200, 20
        gammas = mp_law_d2.classical_locations(N, M)
        acc = np.zeros(M)
        for t in range(trials):
            X = sample_X(M, N, EntryLaw("gaussian"), 1200 + t)
            lam = np.sort(np.linalg.eigvalsh(X @ X.T))[::-1]
            acc += np.abs(lam - gammas)
        peak = int(np.argmax(acc))
        assert peak < M // 20 or peak > M - M // 20
