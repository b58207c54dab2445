import numpy as np
import pytest

from dichain import model
from dichain.spectrum import (ACOUSTIC, OPTICAL, det_h, dispersion_matrix,
                              group_velocity, omega, polarization)
from _helpers import random_valid_params

P0 = model.p0()


def test_matrix_at_origin():
    H = dispersion_matrix(P0, 0.0, 0.0)
    np.testing.assert_allclose(H, [[-3.0, 2.0], [4.0, -5.0]], atol=1e-15)
    assert abs(np.linalg.det(H) - 7.0) < 1e-12


def test_matrix_on_branch():
    H = dispersion_matrix(P0, 1.0, 0.0)
    np.testing.assert_allclose(H, [[-2.0, 2.0], [4.0, -4.0]], atol=1e-15)
    assert abs(np.linalg.det(H)) < 1e-14


def test_matrix_offdiagonal_vanishes_at_pi():
    rng = np.random.RandomState(0)
    for _ in range(5):
        p = random_valid_params(rng)
        H = dispersion_matrix(p, 1.3, np.pi)
        assert abs(H[0, 1]) < 1e-15 and abs(H[1, 0]) < 1e-15


def test_omega_closed_form_values():
    assert abs(omega(P0, ACOUSTIC, 0.0) - 1.0) < 1e-15
    assert abs(omega(P0, ACOUSTIC, np.pi) - np.sqrt(3.0)) < 1e-15
    assert abs(omega(P0, OPTICAL, np.pi) - np.sqrt(5.0)) < 1e-15
    assert abs(omega(P0, OPTICAL, 0.0) - np.sqrt(7.0)) < 1e-15


def test_group_velocity_endpoints():
    rng = np.random.RandomState(1)
    for _ in range(5):
        p = random_valid_params(rng)
        for branch in (ACOUSTIC, OPTICAL):
            assert group_velocity(p, branch, 0.0) == 0.0
            assert abs(group_velocity(p, branch, np.pi)) < 1e-15


def test_group_velocity_matches_finite_difference():
    g = group_velocity(P0, ACOUSTIC, np.pi / 2)
    assert abs(g - 0.33672400291) < 1e-9
    h = 1e-5
    fd = (omega(P0, ACOUSTIC, np.pi / 2 + h) - omega(P0, ACOUSTIC, np.pi / 2 - h)) / (2 * h)
    assert abs(g - fd) < 1e-8


def test_polarization_values():
    w = polarization(P0, ACOUSTIC, 0.0)
    assert abs(w.rho - (-1.0)) < 1e-14
    assert not w.degenerate
    wpi = polarization(P0, ACOUSTIC, np.pi)
    assert wpi.degenerate
    a = wpi.amplitude_vector(1.0)
    assert a[0] == 1.0 and a[1] == 0.0
    wpo = polarization(P0, OPTICAL, np.pi)
    a = wpo.amplitude_vector(1.0)
    assert a[0] == 0.0 and a[1] == 1.0


def test_polarization_quotients_agree():
    rng = np.random.RandomState(2)
    for _ in range(10):
        p = random_valid_params(rng)
        th = rng.uniform(-3.0, 3.0)
        for branch in (ACOUSTIC, OPTICAL):
            w = polarization(p, branch, th)
            alt = p.V2.k1 * (np.exp(-1j * th) + 1.0) / (w.omega ** 2 - p.c2)
            assert abs(w.rho - alt) < 1e-10


def test_dispersion_identity_on_grid():
    thetas = np.linspace(-np.pi, np.pi, 1000)
    for branch in (ACOUSTIC, OPTICAL):
        d = det_h(P0, omega(P0, branch, thetas), thetas)
        assert np.abs(d).max() < 1e-10


def test_branch_separation():
    thetas = np.linspace(-np.pi, np.pi, 500)
    rng = np.random.RandomState(3)
    for _ in range(5):
        p = random_valid_params(rng)
        lo = (omega(p, OPTICAL, thetas) ** 2).min()
        hi = (omega(p, ACOUSTIC, thetas) ** 2).max()
        assert lo - hi >= abs(p.c1 - p.c2) - 1e-12


def test_evenness_and_oddness():
    thetas = np.linspace(0.1, 3.0, 50)
    for branch in (ACOUSTIC, OPTICAL):
        np.testing.assert_allclose(omega(P0, branch, -thetas), omega(P0, branch, thetas),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(group_velocity(P0, branch, -thetas),
                                   -group_velocity(P0, branch, thetas), rtol=0, atol=1e-14)


def test_kernel_vector():
    rng = np.random.RandomState(4)
    for _ in range(10):
        p = random_valid_params(rng)
        th = rng.uniform(-2.9, 2.9)
        for branch in (ACOUSTIC, OPTICAL):
            w = polarization(p, branch, th)
            H = dispersion_matrix(p, w.omega, th)
            v = np.array([1.0, -w.rho])
            assert np.abs(H @ v).max() < 1e-10
