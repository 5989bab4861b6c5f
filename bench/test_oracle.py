"""Tests of the benchmark's oracle: python3 -m pytest bench/test_oracle.py"""

import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad

sys.path.insert(0, os.path.dirname(__file__))

import oracle  # noqa: E402


@pytest.mark.parametrize("d", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_bracketed_edges_of_delta1_are_the_closed_form(d):
    got = oracle.critical_edges(((1.0, 1.0),), d)
    assert len(got) == 1
    np.testing.assert_allclose(got[0], oracle.mp_edges(d), rtol=1e-13,
                               atol=1e-15)


@pytest.mark.parametrize("atoms,d", [
    (((1.0, 0.5), (4.0, 0.5)), 0.5),
    (((1.0, 0.9), (4.0, 0.1)), 2.0),
    (((1.0, 0.5), (4.0, 0.5)), 2.0),
    (((0.5, 0.3), (2.0, 0.4), (8.0, 0.3)), 3.0),
    (((0.5, 0.25), (1.0, 0.25), (3.0, 0.25), (9.0, 0.25)), 0.7),
])
def test_bracketing_agrees_with_polynomial_roots(atoms, d):
    edges = np.ravel(oracle.critical_edges(atoms, d))
    np.testing.assert_allclose(edges, oracle.poly_critical_values(atoms, d),
                               rtol=1e-9)


def test_two_components_of_the_spiked_spectrum():
    comps = oracle.critical_edges(((1.0, 0.9), (4.0, 0.1)), 2.0)
    assert len(comps) == 2
    assert comps[0][1] < comps[1][0]


def test_many_atoms_bracket_without_polynomials():
    atoms = tuple((float(s), 0.01) for s in np.geomspace(0.5, 5.0, 100))
    comps = oracle.critical_edges(atoms, 2.0)
    lo, hi = comps[0][0], comps[-1][1]
    assert 0 < lo < 0.5 and 5.0 < hi < 5.0 * (1 + 2 ** -0.5) ** 2


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_quadrature_cdf_reaches_continuous_mass(d):
    lo, hi = oracle.mp_edges(d)
    cont = oracle.mp_cdf([hi], d)[0] - oracle.mp_zero_atom(d)
    assert abs(cont - min(1.0, 1.0 / d)) < 1e-14
    assert oracle.mp_cdf([-1e-9], d)[0] == 0.0
    assert abs(oracle.mp_cdf([lo], d)[0] - oracle.mp_zero_atom(d)) < 1e-15


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_quadrature_cdf_matches_adaptive_quadrature(d):
    lo, hi = oracle.mp_edges(d)
    for x in (lo + 0.01 * (hi - lo), 0.5 * (lo + hi), hi - 1e-3):
        ref, _ = quad(lambda E: oracle.mp_density(np.array([E]), d)[0], lo, x,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        got = oracle.mp_cdf([x], d)[0] - oracle.mp_zero_atom(d)
        assert abs(got - ref) < 1e-10


@pytest.mark.parametrize("d", [0.5, 2.0])
def test_roots_solve_the_equation(d):
    atoms = ((1.0, 0.5), (4.0, 0.5))
    for z in (0.3 + 0.01j, 2.0 + 0.5j, 7.0 + 1e-3j):
        m1 = oracle.quadratic_root(z, d)
        assert oracle.equation_residual(m1, z, d, ((1.0, 1.0),)) < 1e-12
        m2 = oracle.cleared_poly_root(z, d, atoms)
        assert oracle.equation_residual(m2, z, d, atoms) < 1e-10
        assert m1.imag > 0 and m2.imag > 0
