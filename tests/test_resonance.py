import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from _helpers import (det_h, find_acoustic_optical_resonance, p0, random_valid_params,
                      reduced_coords)
from dichain.resonance import (SCAN_SIZE, acoustic_acoustic_scan, family_params, grid_max,
                               optical_closure_margin, resonance_defect, solve_family_ratio,
                               third_order_margin, wrap_theta)
from dichain.spectrum import ACOUSTIC, OPTICAL, omega

P0 = p0()

# frozen from the independent bisection oracle (brentq on the defect)
P0_THETA_STAR = 1.1144588301931246


def test_reduced_coords_p0():
    rc = reduced_coords(P0, 0.0)
    assert abs(rc.c - 1.0) < 1e-15
    assert abs(rc.f - 32.0) < 1e-12
    assert abs(rc.d1 - 2.0) < 1e-12
    assert abs(rc.d2 - 0.125) < 1e-12
    assert abs(reduced_coords(P0, np.pi).c) < 1e-15


def test_reduced_coords_family_delta():
    for b in (0.5, 1.0, 3.0):
        p = family_params(2.0, b)
        assert abs(reduced_coords(p, 0.3).d2 - 0.125) < 1e-12


def test_reduced_coords_roundtrip():
    rng = np.random.RandomState(0)
    for _ in range(10):
        p = random_valid_params(rng)
        th = rng.uniform(-np.pi, np.pi)
        rc = reduced_coords(p, th)
        assert rc.d1 > rc.d2 + 1.0 > 1.0
        for branch in (ACOUSTIC, OPTICAL):
            assert abs(rc.omega_sq(branch) - omega(p, branch, th) ** 2) < 1e-10


def test_find_resonance_family_b2():
    p = family_params(2.0, 2.0)
    roots = find_acoustic_optical_resonance(p)
    assert any(abs(r) < 1e-12 for r in roots)
    assert abs(2 * omega(p, ACOUSTIC, 0.0) - 2 * np.sqrt(2.0)) < 1e-12
    assert abs(omega(p, OPTICAL, 0.0) - 2 * np.sqrt(2.0)) < 1e-12


def test_find_resonance_p0():
    roots = find_acoustic_optical_resonance(P0)
    assert len(roots) == 1
    assert abs(roots[0] - P0_THETA_STAR) < 1e-10
    defect = 2 * omega(P0, ACOUSTIC, roots[0]) - omega(P0, OPTICAL, 2 * roots[0])
    assert abs(defect) <= 1e-12
    # independent recomputation
    h = lambda t: 2 * omega(P0, ACOUSTIC, t) - omega(P0, OPTICAL, 2 * t)
    ref = brentq(h, 0.5, 2.0, xtol=1e-15)
    assert abs(roots[0] - ref) < 1e-10


def test_find_resonance_none_for_large_onsite():
    assert find_acoustic_optical_resonance(family_params(2.0, 10.0)) == []


def test_solve_family_ratio_exact_cases():
    assert abs(solve_family_ratio(2.0, 1.0) - 2.0) < 1e-12
    assert abs(solve_family_ratio(2.0, 0.9) - 1.6427067419972268) < 1e-12


def test_solve_family_ratio_threshold():
    # below the g_opt sign change (c ~ 0.3258 for gamma=2) there is no
    # positive root; slightly above it there is one, even though the
    # sufficient condition 16c >= 9 - 8*delta only kicks in at c = 0.5
    assert solve_family_ratio(2.0, 0.2) is None
    r = solve_family_ratio(2.0, 0.4)
    assert abs(r - 0.1154910473584283) < 1e-12
    th = np.arccos(2 * 0.4 - 1.0)
    p = family_params(2.0, r)
    assert abs(2 * omega(p, ACOUSTIC, th) - omega(p, OPTICAL, 2 * th)) <= 1e-12


def test_solve_family_ratio_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_family_ratio(1.0, 0.5)
    with pytest.raises(ValueError):
        solve_family_ratio(2.0, 1.5)


def test_family_ratio_always_passes_dispersion_oracle():
    rng = np.random.RandomState(1)
    for _ in range(20):
        gamma = rng.uniform(1.05, 5.0)
        c = rng.uniform(0.0, 1.0)
        r = solve_family_ratio(gamma, c)  # raises DomainError on oracle failure
        if r is not None:
            assert r > 0.0


def test_family_ratio_zeroes_the_defect_on_a_grid():
    # property: every ratio solve_family_ratio returns over a (gamma, c)
    # grid makes 2 omega_-(theta) - omega_+(2 theta) vanish at theta(c),
    # and the same check refuses the ratio perturbed by 1e-6 (defect >= 6e-8)
    tol = 1e-12
    solved = 0
    for gamma in (1.2, 1.5, 2.0, 3.0, 5.0, 10.0):
        for c in np.linspace(0.0, 1.0, 11):
            r = solve_family_ratio(gamma, float(c))
            if r is None:
                continue
            th = np.arccos(2.0 * c - 1.0)
            assert abs(resonance_defect(family_params(gamma, r), th)) <= tol
            assert abs(resonance_defect(family_params(gamma, r * (1 + 1e-6)), th)) > tol
            solved += 1
    assert solved == 50  # of 66 points; the rest lie below the threshold in c


def test_optical_closure_margin():
    assert optical_closure_margin(P0) > 0.5
    assert optical_closure_margin(family_params(2.0, 2.0)) > 0.0
    rng = np.random.RandomState(2)
    for _ in range(10):
        p = random_valid_params(rng)
        m = optical_closure_margin(p)
        thetas = np.linspace(0, np.pi, 512)
        lower = 2 * omega(p, OPTICAL, thetas).min() - omega(p, ACOUSTIC, thetas).max()
        assert m > 0.0
        assert lower > 0.0


def _scan_by_minimize_scalar(gamma):
    """The acoustic->acoustic scan with its grid maximum refined by scipy's
    bounded Brent search on the same bracket: an independent reference for
    grid_max."""
    delta = (gamma - 1.0) ** 2 / (4.0 * gamma)
    c_e = max(0.0, (5.0 - np.sqrt(15.0 * delta + 24.0)) / 2.0)

    def g(c):
        return (8.0 * delta - 9.0 + 16.0 * c + (2.0 * c - 1.0) ** 2
                - 8.0 * np.sqrt(delta + c) * np.sqrt(delta + (2.0 * c - 1.0) ** 2))

    cs = np.linspace(c_e, 1.0, SCAN_SIZE)
    gv = g(cs)
    i = int(np.argmax(gv))
    lo = cs[max(i - 1, 0)]
    hi = cs[min(i + 1, SCAN_SIZE - 1)]
    best = gv[i]
    if hi > lo:
        res = minimize_scalar(lambda c: -g(c), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        best = max(best, -res.fun)
    return float(c_e), float(best)


def test_acoustic_acoustic_scan():
    delta_c0 = 1.0 / 15.0
    # gamma solving (gamma-1)^2/(4 gamma) = 1/15
    gamma = 1.0 + 2 * delta_c0 + 2 * np.sqrt(delta_c0 * (1 + delta_c0))
    ce, _ = acoustic_acoustic_scan(gamma)
    assert ce == 0.0
    # c_e bit for bit and max g~ within 1e-14 of the scipy refinement
    for g in (1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 20.0):
        ce, mg = acoustic_acoustic_scan(g)
        ref_ce, ref_mg = _scan_by_minimize_scalar(g)
        assert ce == ref_ce
        assert abs(mg - ref_mg) <= 1e-14
        assert mg <= 1e-12
    # g~ vanishes identically at c=1 (in floats: sqrt(x)^2 is one ulp off)
    delta = 0.125
    g1 = 8 * delta - 9 + 16 + 1 - 8 * np.sqrt(delta + 1) * np.sqrt(delta + 1)
    assert abs(g1) < 1e-14


@pytest.mark.parametrize("peak", [0.337, 0.372, 0.0, 1.0])
def test_grid_max_refines_a_maximum_between_grid_points(peak):
    """A peak right or left of the largest grid value, or at either end,
    is found to 1e-12; the grid alone misses the inner ones by 4e-4 or more."""
    xs = np.linspace(0.0, 1.0, 11)
    assert abs(grid_max(lambda c: np.cos(c - peak), xs) - 1.0) <= 1e-12


def test_third_order_margin():
    assert abs((omega(P0, ACOUSTIC, 0.0) + omega(P0, OPTICAL, 0.0)
                - omega(P0, OPTICAL, 0.0)) - 1.0) < 1e-14
    assert third_order_margin(P0) > 0.0
    p = family_params(2.0, 2.0)
    assert abs(omega(p, ACOUSTIC, 0.0) - np.sqrt(2.0)) < 1e-14
    assert third_order_margin(p) > 0.0


def test_det_h_at_origin_positive():
    rng = np.random.RandomState(3)
    for _ in range(10):
        p = random_valid_params(rng)
        val = det_h(p, 0.0, 0.0)
        assert val.real > 0.0
        assert abs(val - (p.c1 * p.c2 - 4 * p.V1.k1 * p.V2.k1)) < 1e-12


def test_no_optical_closure_on_grid():
    rng = np.random.RandomState(4)
    thetas = np.linspace(0, np.pi, 512)
    for _ in range(10):
        p = random_valid_params(rng)
        for branch in (ACOUSTIC, OPTICAL):
            gap = np.abs(2 * omega(p, OPTICAL, thetas) - omega(p, branch, 2 * thetas))
            assert gap.min() > 1e-9


def test_wrap_theta():
    assert abs(wrap_theta(2 * np.pi) - 0.0) < 1e-15
    assert abs(wrap_theta(np.pi) - np.pi) < 1e-15
    assert abs(wrap_theta(-np.pi) - np.pi) < 1e-15
    assert abs(wrap_theta(3.5 * np.pi) + 0.5 * np.pi) < 1e-14
