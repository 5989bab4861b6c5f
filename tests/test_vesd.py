import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpvesd.ensembles import EntryLaw, decompose, sample_X
from mpvesd.errors import InputError
from mpvesd.vesd import (
    RatePoint,
    WeightedStepCDF,
    coordinate_profile,
    kolmogorov,
    loglog_fit,
    vesd_curve,
)
from oracles import dense_grid_sup, projector_cdf

jump_lists = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 1.0)),
    min_size=1, max_size=12,
)


def _normalized_step(pairs) -> WeightedStepCDF:
    xs = np.array([p[0] for p in pairs])
    ws = np.array([p[1] for p in pairs]) + 1e-3
    return WeightedStepCDF.from_jumps(xs, ws / ws.sum())


class TestWeightedStepCDF:
    def test_sorting_and_merging(self):
        F = WeightedStepCDF.from_jumps([2.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert F.xs.tolist() == [1.0, 2.0]
        assert F.ws.tolist() == [0.5, 0.5]

    def test_evaluation_sides(self):
        F = WeightedStepCDF.from_jumps([1.0, 3.0], [0.4, 0.6])
        assert F(0.5) == 0.0
        assert F(1.0) == pytest.approx(0.4)
        assert F.left(1.0) == 0.0
        assert F(3.0) == pytest.approx(1.0)
        assert F.left(3.0) == pytest.approx(0.4)

    @settings(max_examples=40, deadline=None)
    @given(pairs=jump_lists)
    def test_mass_and_monotonicity(self, pairs):
        F = _normalized_step(pairs)
        assert F.total == pytest.approx(1.0, abs=1e-10)
        grid = np.linspace(F.xs.min() - 1, F.xs.max() + 1, 50)
        vals = F(grid)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_average(self):
        F = WeightedStepCDF.from_jumps([0.0], [1.0])
        G = WeightedStepCDF.from_jumps([2.0], [1.0])
        H = WeightedStepCDF.average([F, G])
        assert H(1.0) == pytest.approx(0.5)
        assert H.total == pytest.approx(1.0)


@pytest.fixture(scope="module")
def dec():
    X = sample_X(25, 40, EntryLaw("gaussian"), 11)
    return decompose(X, None, seed=11)


class TestVesdCurve:

    def test_eigenvector_gives_single_jump(self, dec):
        v = dec.basis_q1[:, 0]
        F = vesd_curve(dec, v, "q1")
        top = np.argmax(F.xs)
        assert F.ws[top] == pytest.approx(1.0, abs=1e-10)

    def test_unit_mass_any_vector(self, dec):
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(40)
            v /= np.linalg.norm(v)
            assert vesd_curve(dec, v, "q2").total == pytest.approx(1.0, abs=1e-10)

    def test_projector_oracle(self, dec):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(25)
        v /= np.linalg.norm(v)
        F = vesd_curve(dec, v, "q1")
        xs = rng.uniform(0.0, dec.lambdas_q1[0] * 1.1, size=20)
        for x in xs:
            want = projector_cdf(dec.lambdas_q1, dec.basis_q1, v, x)
            assert F(x) == pytest.approx(want, abs=1e-10)

    def test_zero_aggregation(self, dec):
        # M < N: Q2 has N - M kernel vectors, merged into one jump at zero
        rng = np.random.default_rng(2)
        v = rng.standard_normal(40)
        v /= np.linalg.norm(v)
        F = vesd_curve(dec, v, "q2")
        assert F.xs[0] == 0.0
        assert np.sum(F.xs < 1e-10) == 1

    def test_dimension_mismatch(self, dec):
        with pytest.raises(InputError, match="does not match side q2"):
            vesd_curve(dec, np.ones(25) / 5.0, "q2")

    def test_not_normalized(self, dec):
        with pytest.raises(InputError, match="norm .* is not 1"):
            vesd_curve(dec, np.ones(25), "q1")


class TestKolmogorov:
    def test_identical_steps(self):
        F = WeightedStepCDF.from_jumps([0.5, 1.5], [0.3, 0.7])
        assert kolmogorov(F, F) == 0.0

    def test_single_jump_vs_uniform(self):
        F = WeightedStepCDF.from_jumps([1.0], [1.0])
        uniform = lambda x: np.clip(np.asarray(x, dtype=float) / 2.0, 0.0, 1.0)
        assert kolmogorov(F, uniform) == pytest.approx(0.5)

    def test_matches_dense_grid_oracle_vs_law(self, mp_law_d2):
        rng = np.random.default_rng(3)
        for _ in range(5):
            xs = rng.uniform(0.0, 3.5, size=10)
            ws = rng.uniform(0.1, 1.0, size=10)
            F = WeightedStepCDF.from_jumps(xs, ws / ws.sum())
            exact = kolmogorov(F, mp_law_d2.cdf)
            brute = dense_grid_sup(F, mp_law_d2.cdf, -0.5, 4.5)
            assert exact == pytest.approx(brute, abs=1e-6)
            assert exact >= brute - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(pa=jump_lists, pb=jump_lists)
    def test_symmetry(self, pa, pb):
        F, G = _normalized_step(pa), _normalized_step(pb)
        assert kolmogorov(F, G) == pytest.approx(kolmogorov(G, F), abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(pa=jump_lists, pb=jump_lists, pc=jump_lists)
    def test_triangle_inequality(self, pa, pb, pc):
        F, G, H = (_normalized_step(p) for p in (pa, pb, pc))
        assert kolmogorov(F, H) <= kolmogorov(F, G) + kolmogorov(G, H) + 1e-12

    def test_zero_atom_reference_left_limit(self, mp_law_d2):
        # a VESD with the matching kernel jump at zero must not be penalized
        F = WeightedStepCDF.from_jumps([0.0, 1.0], [0.5, 0.5])
        d = kolmogorov(F, mp_law_d2.cdf)
        assert d < 0.5  # the naive left-limit at 0 would force 0.5

    def test_not_normalized_guard(self):
        F = WeightedStepCDF.from_jumps([1.0], [0.7])
        G = WeightedStepCDF.from_jumps([1.0], [1.0])
        with pytest.raises(InputError, match="total mass .* is not 1"):
            kolmogorov(F, G)


class TestLogLogFit:
    def test_exact_power_law(self):
        pts = [RatePoint(n, 1.0 / n) for n in (50, 100, 200, 400, 800)]
        assert loglog_fit(pts).slope == pytest.approx(-1.0, abs=1e-12)

    def test_constant_values(self):
        pts = [RatePoint(n, 0.5) for n in (50, 100, 200, 400, 800)]
        assert loglog_fit(pts).slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_half_rate(self):
        rng = np.random.default_rng(7)
        ns = np.unique(np.geomspace(50, 5000, 20).astype(int))
        pts = [RatePoint(int(n), float(min(1.0, 3.0 * n ** -0.5
                                           * (1 + 0.1 * rng.standard_normal()))))
               for n in ns]
        fit = loglog_fit(pts)
        assert -0.55 <= fit.slope <= -0.45

    def test_envelope_ignores_low_outliers(self):
        pts = []
        for n in (50, 100, 200, 400, 800):
            pts.append(RatePoint(n, 1.0 / n))
            pts.append(RatePoint(n + 1, 0.1 / n))  # dips below the envelope
        fit = loglog_fit(pts, mode="upper_envelope")
        assert fit.slope == pytest.approx(-1.0, abs=0.02)

    def test_insufficient_data(self):
        pts = [RatePoint(n, 1.0 / n) for n in (50, 100, 200, 400)]
        with pytest.raises(InputError, match="need >= 5 distinct N"):
            loglog_fit(pts)
        assert loglog_fit(pts, min_distinct=2).slope == pytest.approx(-1.0)

    def test_rate_point_validation(self):
        with pytest.raises(ValueError):
            RatePoint(1, 0.5)
        with pytest.raises(ValueError):
            RatePoint(10, 0.0)


class TestCoordinateProfile:
    def test_matches_per_coordinate_curves(self, mp_law_d2):
        X = sample_X(30, 60, EntryLaw("gaussian"), 21)
        dec = decompose(X, None)
        prof = coordinate_profile(dec.lambdas_q2, dec.basis_q2, mp_law_d2.cdf)
        for i in (0, 7, 29):
            e = np.zeros(60)
            e[i] = 1.0
            F = vesd_curve(dec, e, "q2")
            assert prof[i] == pytest.approx(kolmogorov(F, mp_law_d2.cdf),
                                            abs=1e-12)

    def test_average_reference_is_esd(self):
        X = sample_X(20, 20, EntryLaw("gaussian"), 22)
        dec = decompose(X, None)
        prof = coordinate_profile(dec.lambdas_q1, dec.basis_q1, reference=None)
        # averaging the coordinate VESDs gives the ESD (trace identity),
        # so each distance equals the explicit step-step Kolmogorov distance
        esd = WeightedStepCDF.from_jumps(dec.lambdas_q1,
                                         np.full(20, 1.0 / 20))
        for i in (0, 5, 19):
            e = np.zeros(20)
            e[i] = 1.0
            F = vesd_curve(dec, e, "q1")
            assert prof[i] == pytest.approx(kolmogorov(F, esd), abs=1e-12)
