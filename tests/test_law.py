import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import SPIKED, TWO_ATOM
from mpvesd.errors import InputError, NumericalError
from mpvesd.law import (
    HalfPlanePoint,
    LawVector,
    PopulationSpectrum,
    SolverOptions,
    density_rho2c,
    find_support,
    solve_law,
    solve_m2c,
)
from oracles import (cleared_poly_root, critical_edges, mp_density, mp_edges,
                     quadratic_root)

DELTA1 = PopulationSpectrum.identity()


def geometric_atoms(k, lo, hi):
    return tuple((float(s), 1.0 / k) for s in np.geomspace(lo, hi, k))


class TestPopulationSpectrum:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PopulationSpectrum(atoms=((1.0, 0.5), (2.0, 0.49)))

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            PopulationSpectrum(atoms=((0.0, 1.0),))

    def test_sorted_descending(self):
        spec = PopulationSpectrum(atoms=((1.0, 0.5), (4.0, 0.5)))
        assert spec.atoms[0][0] == 4.0

    def test_norm_bound(self):
        with pytest.raises(ValueError, match="sigma_max"):
            PopulationSpectrum(atoms=((200.0, 1.0),), tau=0.01)

    def test_low_mass_bound(self):
        with pytest.raises(ValueError, match="tau"):
            PopulationSpectrum(atoms=((1.0, 0.004), (0.005, 0.996)), tau=0.01)

    def test_halfplane_point_requires_positive_eta(self):
        with pytest.raises(ValueError):
            HalfPlanePoint(E=1.0, eta=0.0)


class TestSolveM2c:
    def test_quadratic_oracle_example(self):
        z = complex(2.0, 0.5)
        m = solve_m2c(DELTA1, 2.0, z)
        assert abs(m - quadratic_root(z, 2.0)) < 1e-12

    def test_large_z_asymptotic(self):
        z = 1e6j
        for spec in (DELTA1, PopulationSpectrum(atoms=TWO_ATOM)):
            m = solve_m2c(spec, 2.0, z)
            assert abs(m - (-1.0 / z)) / abs(1.0 / z) < 1e-5

    def test_two_atom_cubic_example(self):
        z = complex(3.0, 0.1)
        m = solve_m2c(PopulationSpectrum(atoms=TWO_ATOM), 0.5, z)
        assert m.imag > 0 and (z * m).imag > 0
        assert abs(m - cleared_poly_root(z, 0.5, TWO_ATOM)) < 1e-10

    def test_oracle_equivalence_spot_grid(self):
        spec2 = PopulationSpectrum(atoms=TWO_ATOM)
        for E in (0.2, 1.0, 2.5, 4.0):
            for eta in (1e-4, 1e-2, 1.0):
                z = complex(E, eta)
                assert abs(solve_m2c(DELTA1, 2.0, z)
                           - quadratic_root(z, 2.0)) < 1e-10
                assert abs(solve_m2c(spec2, 0.5, z)
                           - cleared_poly_root(z, 0.5, TWO_ATOM)) < 1e-9

    def test_accepts_halfplane_point(self):
        m1 = solve_m2c(DELTA1, 2.0, HalfPlanePoint(E=1.0, eta=0.3))
        m2 = solve_m2c(DELTA1, 2.0, complex(1.0, 0.3))
        assert m1 == m2

    def test_rejects_lower_halfplane(self):
        with pytest.raises(ValueError):
            solve_m2c(DELTA1, 2.0, complex(1.0, -0.1))

    @settings(max_examples=25, deadline=None)
    @given(
        E=st.floats(0.05, 8.0),
        eta=st.floats(1e-5, 2.0),
        d=st.one_of(st.floats(0.2, 0.8), st.floats(1.3, 4.0)),
        sigmas=st.lists(st.floats(0.3, 5.0), min_size=1, max_size=3),
    )
    def test_admissibility_and_residual(self, E, eta, d, sigmas):
        w = 1.0 / len(sigmas)
        atoms = tuple((s, w) for s in sigmas)
        try:
            spec = PopulationSpectrum(atoms=atoms)
        except ValueError:
            return  # merged duplicate sigmas can break the weight-sum check
        z = complex(E, eta)
        m = solve_m2c(spec, d, z)
        assert m.imag > 0
        assert (z * m).imag > -1e-13
        integ = sum(wt * s / (1 + m * s) for s, wt in spec.atoms)
        assert abs(1.0 / m + z - integ / d) < 1e-11


class TestDensity:
    def test_closed_form_mp_density(self):
        # derived from the quadratic root's imaginary part
        for E in (0.3, 1.0, 2.0, 2.8):
            assert density_rho2c(DELTA1, 2.0, E) == pytest.approx(
                float(mp_density(E, 2.0)), abs=1e-8)

    def test_off_support_is_zero(self, mp_law_d2):
        lo, hi = mp_law_d2.edges[0]
        for E in (lo - 0.02, hi + 0.02, hi + 3.0):
            assert abs(mp_law_d2.density(E)) < 1e-8

    def test_two_atom_matches_cubic_oracle(self):
        spec = PopulationSpectrum(atoms=TWO_ATOM)
        E = 2.0
        rho = density_rho2c(spec, 0.5, E)
        m = cleared_poly_root(complex(E, 1e-9), 0.5, TWO_ATOM)
        assert rho == pytest.approx(m.imag / np.pi, abs=1e-7)

    def test_nonnegative_everywhere(self, two_atom_law_d05):
        grid = np.linspace(0.01, 20.0, 50)
        assert np.all(two_atom_law_d05.density(grid) >= 0)


class TestSupport:
    def test_mp_edges_d2(self):
        edges, zero_atom = find_support(DELTA1, 2.0)
        lo, hi = mp_edges(2.0)
        assert len(edges) == 1
        assert edges[0][0] == pytest.approx(lo, abs=1e-9)
        assert edges[0][1] == pytest.approx(hi, abs=1e-9)
        assert zero_atom == 0.5

    def test_scaling_covariance(self):
        c = 3.0
        edges, _ = find_support(PopulationSpectrum(atoms=((c, 1.0),)), 2.0)
        lo, hi = mp_edges(2.0)
        assert edges[0][0] == pytest.approx(c * lo, rel=1e-9)
        assert edges[0][1] == pytest.approx(c * hi, rel=1e-9)

    def test_two_atom_regression(self, two_atom_law_d05):
        # frozen from the grid scan + critical-value polish
        assert len(two_atom_law_d05.edges) == 1
        lo, hi = two_atom_law_d05.edges[0]
        assert lo == pytest.approx(0.311118658683, abs=1e-6)
        assert hi == pytest.approx(17.142441266316, abs=1e-6)
        assert two_atom_law_d05.zero_atom == 0.0

    def test_spiked_two_components(self, spiked_law_d2):
        assert len(spiked_law_d2.edges) == 2
        assert spiked_law_d2.zero_atom == 0.5

    def test_component_masses_integer_at_matching_N(self, spiked_law_d2):
        # classical eigenvalue counts: N * component mass is an integer
        from scipy.integrate import trapezoid
        N = 500
        for sl in spiked_law_d2.component_slices:
            mass = trapezoid(spiked_law_d2.grid_rho[sl],
                             spiked_law_d2.grid_E[sl])
            assert abs(N * mass - round(N * mass)) < 1e-3

    @pytest.mark.parametrize("atoms, d", [
        (geometric_atoms(20, 0.2, 10.0), 4.0),
        (geometric_atoms(100, 0.5, 5.0), 2.0),
    ])
    def test_many_atoms_match_bracketed_oracle(self, atoms, d):
        law = solve_law(PopulationSpectrum(atoms=atoms), d)
        want = critical_edges(atoms, d)
        assert len(law.edges) == len(want)
        np.testing.assert_allclose(np.array(law.edges), np.array(want),
                                   rtol=1e-7)
        assert law.total_mass == pytest.approx(1.0, abs=1e-6)
        for sl in law.component_slices:
            assert np.all(law.grid_rho[sl][1:-1] > 0)


class TestHardEdge:
    """delta_1 at d = 1: the density diverges like E^{-1/2} at E = 0."""

    def test_edges_mass_and_cdf(self):
        law = solve_law(DELTA1, 1.0)
        assert len(law.edges) == 1
        lo, hi = law.edges[0]
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(4.0, abs=1e-9)
        assert law.zero_atom == 0.0
        assert law.total_mass == pytest.approx(1.0, abs=1e-6)
        xs = np.concatenate([[1e-7, 1e-5, 1e-3], np.linspace(0.05, 4.0, 25)])
        for x in xs:
            want = quad(lambda t: float(mp_density(t, 1.0)), 0.0, x,
                        limit=200)[0]
            assert law.cdf(x) == pytest.approx(want, abs=1e-5)

    def test_density_diverges_at_zero(self):
        law = solve_law(DELTA1, 1.0)
        assert law.grid_rho[0] == np.inf
        assert law.density(0.0) == np.inf
        assert law.density(np.array([0.0, 1e-6]))[0] == np.inf
        assert law.direction(LawVector.concentrated(0)).density(0.0) == np.inf
        # rho(E) ~ 1/(pi sqrt(E)) next to the hard edge
        assert law.density(1e-8) == pytest.approx(
            float(mp_density(1e-8, 1.0)), rel=1e-6)


class TestCdf:
    def test_negative_x(self, mp_law_d2):
        assert mp_law_d2.cdf(-0.5) == 0.0

    def test_total_mass(self, mp_law_d2, two_atom_law_d05):
        for law in (mp_law_d2, two_atom_law_d05):
            assert law.cdf(law.top_edge + 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_mass_conservation(self, mp_law_d2, two_atom_law_d05, spiked_law_d2):
        for law in (mp_law_d2, two_atom_law_d05, spiked_law_d2):
            assert law.zero_atom + law.continuous_mass == pytest.approx(1.0, abs=1e-6)
            assert law.continuous_mass == pytest.approx(
                min(1.0, 1.0 / law.d), abs=1e-6)

    def test_value_at_one_vs_quadrature(self, mp_law_d2):
        lo, _ = mp_edges(2.0)
        expected = 0.5 + quad(lambda t: float(mp_density(t, 2.0)), lo, 1.0)[0]
        assert mp_law_d2.cdf(1.0) == pytest.approx(expected, abs=1e-6)

    def test_monotone(self, two_atom_law_d05):
        xs = np.linspace(-1.0, 20.0, 400)
        vals = two_atom_law_d05.cdf(xs)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_flat_on_gap(self, spiked_law_d2):
        (_, hi1), (lo2, _) = spiked_law_d2.edges
        a = spiked_law_d2.cdf(hi1 + 1e-4)
        b = spiked_law_d2.cdf(lo2 - 1e-4)
        assert a == pytest.approx(b, abs=1e-9)


class TestClassicalLocations:
    def test_strictly_decreasing(self, two_atom_law_d05):
        g = two_atom_law_d05.classical_locations(N=50, M=100)
        assert np.all(np.diff(g) < 0)

    def test_small_case_against_oracle(self, mp_law_d2):
        # delta_1, d=2, N=4, M=2: bisection against closed-form quadrature
        g = mp_law_d2.classical_locations(N=4, M=2)
        lo, hi = mp_edges(2.0)
        for j, gamma in enumerate(g, start=1):
            target = (2 * j - 1) / 8
            val = quad(lambda t: float(mp_density(t, 2.0)), gamma, hi)[0]
            assert val == pytest.approx(target, abs=1e-6)

    def test_defining_equation_roundtrip(self, spiked_law_d2):
        N, M = 200, 100
        g = spiked_law_d2.classical_locations(N, M)
        j = np.arange(1, len(g) + 1)
        lhs = 1.0 - spiked_law_d2.cdf(g)
        assert np.max(np.abs(lhs - (j - 0.5) / N)) < 1e-8

    @pytest.mark.parametrize("atoms, d, N", [
        (SPIKED, 2.0, 395),
        (geometric_atoms(20, 0.2, 10.0), 4.0, 326),
    ])
    def test_default_M_rounded_up_stays_in_support(self, atoms, d, N):
        # N/d is a half-integer and round(N/d) rounds up: the last level
        # equals the zero atom and belongs at the lower edge, not at 0
        law = solve_law(PopulationSpectrum(atoms=atoms), d)
        g = law.classical_locations(N)
        assert len(g) == round(N / d) > N / d
        inside = np.zeros(len(g), dtype=bool)
        for lo, hi in law.edges:
            inside |= (g >= lo) & (g <= hi)
        assert inside.all()

    def test_out_of_range_level(self, mp_law_d2):
        with pytest.raises(InputError, match="exceeds continuous mass"):
            # requesting more quantiles than the continuous mass supports
            mp_law_d2.classical_locations(N=4, M=4)

    @pytest.mark.parametrize("N, M", [(0, None), (0, 3), (4, 0)])
    def test_empty_count_rejected(self, mp_law_d2, N, M):
        with pytest.raises(InputError, match="need N, M >= 1"):
            mp_law_d2.classical_locations(N, M)


class TestEdgeRegularity:
    def test_mp_all_pass(self, mp_law_d2):
        rep = mp_law_d2.edge_regularity(tau=0.01)
        assert rep.all_ok
        assert len(rep.edges) == 2

    def test_tau_above_top_edge_fails_location(self, mp_law_d2):
        rep = mp_law_d2.edge_regularity(tau=mp_law_d2.top_edge + 1.0)
        assert not rep.edges[0].location_ok

    def test_near_merged_components_flag_separation(self):
        # 0.9 delta_1 + 0.1 delta_3 at d=2 splits with a gap ~0.025
        law = solve_law(PopulationSpectrum(atoms=((3.0, 0.1), (1.0, 0.9))), 2.0)
        assert len(law.edges) == 2
        rep = law.edge_regularity(tau=0.1)
        assert not rep.all_ok
        assert any(not e.separation_ok for e in rep.edges)

    def test_bulk_minimum_reported(self, mp_law_d2):
        rep = mp_law_d2.edge_regularity()
        assert len(rep.bulk_density_minima) == 1
        assert rep.bulk_density_minima[0] > 0


class TestDirectionalLaw:
    def test_identity_sigma_reduces_to_scalar_law(self, mp_law_d05):
        # sigma_t all equal forces direction independence: F_u = d*F2c + (1-d)*1
        u = LawVector.concentrated(0)
        dl = mp_law_d05.direction(u)
        xs = np.linspace(0.0, mp_law_d05.top_edge * 1.1, 60)
        d = mp_law_d05.d
        scalar = d * mp_law_d05.cdf(xs) + (1.0 - d) * (xs >= 0)
        assert np.max(np.abs(dl.cdf(xs) - scalar)) < 1e-6

    def test_total_mass_at_top_edge(self, two_atom_law_d05):
        for atom in (0, 1):
            dl = two_atom_law_d05.direction(LawVector.concentrated(atom))
            assert dl.cdf(two_atom_law_d05.top_edge) == pytest.approx(1.0, abs=1e-6)

    def test_zero_atom_matches_resolvent_formula(self, two_atom_law_d05):
        # mass at zero is |u_t|^2 / (1 + m(0) sigma_t) summed over atoms
        m0 = solve_m2c(two_atom_law_d05.spectrum, 0.5, complex(1e-9, 1e-8)).real
        for atom, sigma in ((0, 4.0), (1, 1.0)):
            dl = two_atom_law_d05.direction(LawVector.concentrated(atom))
            assert dl.atom == pytest.approx(1.0 / (1.0 + m0 * sigma), abs=1e-5)

    def test_cdf_ordering_mid_spectrum(self, two_atom_law_d05):
        # direction on the small-sigma atom accumulates mass sooner
        d_small = two_atom_law_d05.direction(LawVector.concentrated(1))
        d_big = two_atom_law_d05.direction(LawVector.concentrated(0))
        x = 2.0
        assert d_small.cdf(x) > d_big.cdf(x)

    def test_f1c_decomposition(self, two_atom_law_d05, spiked_law_d2):
        # d*F2c + (1-d)*1 equals the weight-averaged directional CDFs
        for law in (two_atom_law_d05, spiked_law_d2):
            xs = np.linspace(0.0, law.top_edge * 1.05, 40)
            mix = np.zeros_like(xs)
            for idx, (sigma, w) in enumerate(law.spectrum.atoms):
                mix += w * law.direction(LawVector.concentrated(idx)).cdf(xs)
            f1c = law.d * law.cdf(xs) + (1.0 - law.d) * (xs >= 0)
            assert np.max(np.abs(mix - f1c)) < 1e-5

    def test_law_vector_validation(self):
        with pytest.raises(ValueError):
            LawVector(atom_indices=(0,), amplitudes=(0.5 + 0j,))
        v = LawVector.from_atom_weights([0.25, 0.75])
        assert v.atom_weights(2) == pytest.approx([0.25, 0.75])


class TestSpikedDensity:
    """Densities seen from a population eigenvector, direction(e_i)."""

    def test_identity_with_direction_density(self, two_atom_law_d05):
        # e_i sees Im m / (pi E (1/s + 2 Re m + |m|^2 s)), s = sigma_i, with
        # m = m(E + i0) from the off-axis solver
        law = two_atom_law_d05
        E = 10.0
        m = solve_m2c(law.spectrum, law.d, complex(E, 1e-8))
        for idx, (s, _) in enumerate(law.spectrum.atoms):
            want = m.imag / np.pi / (E * (1.0 / s + 2.0 * m.real
                                          + abs(m) ** 2 * s))
            dl = law.direction(LawVector.concentrated(idx))
            assert dl.density(E) == pytest.approx(want, abs=1e-6)

    def test_monotone_in_sigma_near_top_edge(self, spiked_law_d2):
        # atoms are sigma-descending: index 1 is sigma = 1, index 0 sigma = 4
        lo, hi = spiked_law_d2.edges[-1]
        E = hi - 0.1 * (hi - lo)
        vals = [spiked_law_d2.direction(LawVector.concentrated(i)).density(E)
                for i in (1, 0)]
        assert vals[0] < vals[1]

    def test_off_support_is_zero(self, spiked_law_d2):
        (_, hi1), (lo2, _) = spiked_law_d2.edges
        mid_gap = 0.5 * (hi1 + lo2)
        spike = spiked_law_d2.direction(LawVector.concentrated(0))
        assert spike.density(mid_gap) == pytest.approx(0.0, abs=1e-12)


class TestSquareRootEdges:
    def test_edge_behavior_bounded(self, mp_law_d2, two_atom_law_d05):
        for law in (mp_law_d2, two_atom_law_d05):
            lo, hi = law.edges[0]
            deltas = np.geomspace(1e-4, 1e-2, 6)
            for edge, inward in ((hi, -1.0), (lo, +1.0)):
                ratios = np.array([law.density(edge + inward * dl) / np.sqrt(dl)
                                   for dl in deltas])
                assert ratios.min() > 0
                assert ratios.max() / ratios.min() < 4.0


class TestSolverOptions:
    def test_custom_floor(self):
        opts = SolverOptions(eta_floor=1e-5)
        rho = density_rho2c(DELTA1, 2.0, 1.0, opts=opts)
        assert rho == pytest.approx(float(mp_density(1.0, 2.0)), abs=1e-6)

    def test_nonconvergence_raises(self):
        # tolerance below the floating-point floor cannot be met
        opts = SolverOptions(max_iter=1, tol=1e-18)
        with pytest.raises(NumericalError, match="above tol"):
            solve_m2c(PopulationSpectrum(atoms=TWO_ATOM), 0.5,
                      complex(2.0, 1e-6), opts)
