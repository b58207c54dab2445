import tracemalloc

import numpy as np
import pytest

from _helpers import random_valid_params, strang_states
from dichain import amplitude as amp
from dichain import model
from dichain.amplitude import (NONRESONANT, RESONANT_GENERIC, RESONANT_HALF_PI,
                               RESONANT_PI, NearResonance,
                               ODEReferenceSolution, StrangSolution, build_macro_system,
                               compute_K, corrector_carriers, coupling_coefficients,
                               second_order_amplitudes, sech_envelope,
                               spectral_derivative, tau_derivative)
from dichain.resonance import family_params, solve_family_ratio, wrap_theta
from dichain.spectrum import ACOUSTIC, OPTICAL, dispersion_matrix, polarization

P0 = model.p0()
L, NG = 40.0, 128


def family_nl(gamma=2.0, b=2.0, v12=0.3, v22=0.2, w12=0.4, w22=1.0):
    return model.make_params(v1=(1.0, v12, 0.0), v2=(gamma, v22, 0.0),
                             w1=(b, w12, 0.0), w2=(b, w22, 0.0))


def resonant_pair(p, theta1):
    w1 = polarization(p, ACOUSTIC, theta1)
    w2 = polarization(p, OPTICAL, wrap_theta(2 * theta1))
    return w1, w2


# ---------------------------------------------------------------------------
# quadratic sources


def test_compute_k_zero():
    zero = (np.zeros(4, complex), np.zeros(4, complex))
    for iota in [(1, 1), (2, 2), (1, 2), (1, -2), (1, -1)]:
        k = compute_K(iota, zero, zero, family_nl(), 0.7, 1.4)
        assert np.all(k[0] == 0.0) and np.all(k[1] == 0.0)


def test_compute_k_dc_hand_value():
    # theta1 = theta2 = pi, real amplitudes (a_n, b_n):
    # row 1 = sum_n 4 v12 a_n b_n - w12 a_n^2
    p = model.make_params(v1=(1.0, 0.7, 0.0), v2=(2.0, 0.0, 0.0),
                          w1=(1.0, 0.25, 0.0), w2=(1.0, 0.0, 0.0))
    a1 = (np.array([0.4 + 0j]), np.array([0.9 + 0j]))
    a2 = (np.array([-0.3 + 0j]), np.array([0.5 + 0j]))
    k = compute_K((1, -1), a1, a2, p, np.pi, np.pi)
    expected = (4 * 0.7 * 0.4 * 0.9 - 0.25 * 0.4 ** 2) \
        + (4 * 0.7 * (-0.3) * 0.5 - 0.25 * 0.3 ** 2)
    assert abs(k[0][0] - expected) < 1e-14


def test_compute_k_conjugation_symmetry():
    """Conjugating amplitudes AND carriers (theta -> -theta) conjugates
    every source; at theta in {0, pi} the carrier factors are real and
    amplitude conjugation alone suffices."""
    rng = np.random.RandomState(0)
    p = family_nl()
    for iota in [(1, 1), (2, 2), (1, 2), (1, -2), (1, -1)]:
        a1 = tuple(rng.randn(3) + 1j * rng.randn(3) for _ in range(2))
        a2 = tuple(rng.randn(3) + 1j * rng.randn(3) for _ in range(2))
        a1c = tuple(np.conj(a) for a in a1)
        a2c = tuple(np.conj(a) for a in a2)
        k = compute_K(iota, a1, a2, p, 0.8, 1.6)
        kc = compute_K(iota, a1c, a2c, p, -0.8, -1.6)
        for i in (0, 1):
            np.testing.assert_allclose(kc[i], np.conj(k[i]), atol=1e-12)
        for th1, th2 in ((0.0, 0.0), (np.pi, np.pi)):
            k = compute_K(iota, a1, a2, p, th1, th2)
            kc = compute_K(iota, a1c, a2c, p, th1, th2)
            for i in (0, 1):
                np.testing.assert_allclose(kc[i], np.conj(k[i]), atol=1e-12)


def test_compute_k_quadratic_scaling():
    rng = np.random.RandomState(1)
    p = family_nl()
    a1 = tuple(rng.randn(3) + 1j * rng.randn(3) for _ in range(2))
    a2 = tuple(rng.randn(3) + 1j * rng.randn(3) for _ in range(2))
    lam = 1.7
    for iota in [(1, 1), (2, 2), (1, 2), (1, -2), (1, -1)]:
        k = compute_K(iota, a1, a2, p, 0.8, 1.6)
        ks = compute_K(iota, tuple(lam * a for a in a1), tuple(lam * a for a in a2),
                       p, 0.8, 1.6)
        for i in (0, 1):
            np.testing.assert_allclose(ks[i], lam ** 2 * k[i], rtol=1e-12)


def test_compute_k_unknown_index():
    with pytest.raises(ValueError):
        compute_K((2, -1), (0, 0), (0, 0), family_nl(), 0.1, 0.2)


# ---------------------------------------------------------------------------
# coupling coefficients


def test_coupling_pi_case():
    # gamma=7 admits the band-edge resonance theta1=pi
    r = solve_family_ratio(7.0, 0.0)
    p = model.make_params(v1=(1.0, 0.3, 0.0), v2=(7.0, 0.2, 0.0),
                          w1=(r, 0.4, 0.0), w2=(r, 1.0, 0.0))
    w1, w2 = resonant_pair(p, np.pi)
    cpl = coupling_coefficients(p, w1, w2)
    assert abs(cpl.d1 - (-0.4)) < 1e-12
    assert abs(cpl.d2 - (-0.4)) < 1e-12
    sys = build_macro_system(p, w1, w2)
    assert sys.mode == RESONANT_PI
    assert max(abs(v) for v in sys.velocities) < 1e-12


def test_coupling_family_theta0():
    p = family_nl(w12=0.4, w22=1.0)
    w1, w2 = resonant_pair(p, 0.0)
    cpl = coupling_coefficients(p, w1, w2)
    assert abs(cpl.d - 1.0) < 1e-12
    assert abs(cpl.d1 - (1.0 * 1.0 - 0.4)) < 1e-12
    assert abs(cpl.d2 - (1.0 * 1.0 - 0.4)) < 1e-12


def test_coupling_generic_matches_independent_evaluation():
    """Re-derive d1/d2/k1/k2 from scratch using polarization() quotients."""
    c = 0.72
    r = solve_family_ratio(2.0, c)
    p = model.make_params(v1=(1.0, 0.31, 0.0), v2=(2.0, 0.17, 0.0),
                          w1=(r, 0.23, 0.0), w2=(r, 0.41, 0.0))
    th1 = float(np.arccos(2 * c - 1.0))
    w1, w2 = resonant_pair(p, th1)
    cpl = coupling_coefficients(p, w1, w2)
    assert np.isfinite(cpl.k1) and np.isfinite(cpl.k2)
    assert abs(cpl.k1) > 0 and abs(cpl.k2) > 0

    rho1 = polarization(p, ACOUSTIC, th1).rho
    rho2 = polarization(p, OPTICAL, wrap_theta(2 * th1)).rho
    om1, om2 = w1.omega, w2.omega
    e1, e2 = np.exp(1j * th1), np.exp(2j * th1)
    v12, v22, w12c, w22c = p.V1.k2, p.V2.k2, p.W1.k2, p.W2.k2
    d = (p.V1.k1 * p.V2.k1 ** 2 * (2 + 4 * np.cos(th1) + 2 * np.cos(2 * th1))
         / ((om1 ** 2 - p.c2) ** 2 * (om2 ** 2 - p.c2)))
    cr1 = np.conj(rho1)
    d1 = (d * v22 * ((np.conj(e1) - 1) / (cr1 * rho2) + (np.conj(e2) - 1) / rho2
                     + (e1 - 1) / cr1)
          + v12 * (cr1 * rho2 * (e1 - 1) + rho2 * (e2 - 1) + cr1 * (np.conj(e1) - 1))
          + d * w22c - w12c)
    d2 = (d * v22 * ((np.conj(e2) - 1) / rho1 ** 2 + 2 * (np.conj(e1) - 1) / rho1)
          + v12 * (rho1 ** 2 * (e2 - 1) + 2 * rho1 * (e1 - 1)) + d * w22c - w12c)
    assert abs(cpl.d1 - d1) < 1e-12
    assert abs(cpl.d2 - d2) < 1e-12
    k1 = d1 / (1j * om1) * (om1 ** 2 - p.c2) / ((om1 ** 2 - p.c1) + (om1 ** 2 - p.c2))
    k2 = d2 / (2j * om2) * (om2 ** 2 - p.c2) / ((om2 ** 2 - p.c1) + (om2 ** 2 - p.c2))
    assert abs(cpl.k1 - k1) < 1e-12
    assert abs(cpl.k2 - k2) < 1e-12


def test_macro_system_modes():
    p = family_nl()
    w1 = polarization(p, ACOUSTIC, 0.3)
    w2 = polarization(p, OPTICAL, 0.9)
    sys = build_macro_system(p, w1, w2)
    assert sys.mode == NONRESONANT and sys.k1 == 0.0 and sys.k2 == 0.0

    w1r, w2r = resonant_pair(p, 0.0)
    sysr = build_macro_system(p, w1r, w2r)
    assert sysr.mode == RESONANT_GENERIC
    assert abs(w2r.omega - 2 * w1r.omega) < 1e-10

    rh = solve_family_ratio(2.0, 0.5)
    ph = family_nl(b=rh)
    sysh = build_macro_system(ph, *resonant_pair(ph, np.pi / 2))
    assert sysh.mode == RESONANT_HALF_PI


# ---------------------------------------------------------------------------
# envelope evolution


def test_evolve_zero_fields():
    p = family_nl()
    sys = build_macro_system(p, *resonant_pair(p, 0.0))
    z = np.zeros(NG, complex)
    states = strang_states(sys, (z, z), L, 0.5, 0.01)
    assert all(np.all(f[0] == 0) and np.all(f[1] == 0) for f in states)


def test_evolve_nonresonant_is_exact_translation():
    p = P0
    w1 = polarization(p, ACOUSTIC, 0.7)
    w2 = polarization(p, OPTICAL, 1.3)
    sys = build_macro_system(p, w1, w2)
    y = amp.grid_points(L, NG)
    g = np.exp(-0.5 * (y - L / 2) ** 2).astype(complex)
    b1 = strang_states(sys, (g, 0 * g), L, 2.0, 0.05)[-1][0]
    shifted = np.exp(-0.5 * (np.mod(y + sys.velocities[0] * 2.0 - L / 2 + L / 2, L)
                             - L / 2) ** 2)
    assert np.linalg.norm(b1 - shifted) / np.linalg.norm(shifted) < 1e-10


def test_evolve_l2_preservation():
    p = P0
    sys = build_macro_system(p, polarization(p, ACOUSTIC, 0.7),
                             polarization(p, OPTICAL, 1.3))
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.5, 0.5))
    states = strang_states(sys, f0, L, 5.0, 0.1)
    n0 = np.linalg.norm(states[0][0])
    for f in states:
        assert abs(np.linalg.norm(f[0]) - n0) <= 1e-10 * n0


def test_evolve_matches_reference_ode():
    p = family_nl()
    sys = build_macro_system(p, *resonant_pair(p, 0.0))
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.3, 0.5) * np.exp(0.4j))
    ref = ODEReferenceSolution(sys, f0, L, 1.0)
    b = strang_states(sys, f0, L, 1.0, 0.002)[-1]
    bref = ref.fields(1.0)
    err = max(np.abs(b[0] - bref[0]).max(), np.abs(b[1] - bref[1]).max())
    assert err <= 1e-8


def test_evolve_generates_second_wave():
    p = family_nl()
    sys = build_macro_system(p, *resonant_pair(p, 0.0))
    assert abs(sys.k2) > 0
    f0 = (sech_envelope(L, NG, 1.0, 0.5), np.zeros(NG, complex))
    assert np.linalg.norm(strang_states(sys, f0, L, 0.1, 0.002)[-1][1]) > 1e-4


def test_evolve_self_convergence_order_two():
    rh = solve_family_ratio(2.0, 0.5)
    p = family_nl(b=rh)
    sys = build_macro_system(p, *resonant_pair(p, np.pi / 2))
    assert abs(sys.velocities[0]) > 0.1  # advection active: splitting error visible
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.3, 0.5) * np.exp(0.4j))
    sols = {}
    for dtau in (0.04, 0.02, 0.01):
        sols[dtau] = strang_states(sys, f0, L, 1.0, dtau)[-1]
    d1 = max(np.abs(sols[0.04][i] - sols[0.02][i]).max() for i in (0, 1))
    d2 = max(np.abs(sols[0.02][i] - sols[0.01][i]).max() for i in (0, 1))
    assert np.log2(d1 / d2) >= 2.0 - 0.1


def test_evolve_nan_detection():
    p = family_nl(w22=50.0)
    sys = build_macro_system(p, *resonant_pair(p, 0.0))
    f0 = (sech_envelope(L, NG, 80.0, 0.1), sech_envelope(L, NG, 80.0, 0.1))
    sol = StrangSolution(sys, f0, L, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            sol.fields(50.0)
        with pytest.raises(FloatingPointError):  # the diverged states are not kept
            sol.fields(50.0)


def test_strang_solution_holds_one_state(monkeypatch):
    """Stepping far along keeps the initial state and the cursor only;
    an earlier time restarts from the initial state."""
    monkeypatch.setattr(amp, "strang_step", lambda sys, f, L, dt: (f[0] + dt, f[1] + dt))
    z = np.zeros(64, complex)
    sys = build_macro_system(P0, polarization(P0, ACOUSTIC, 0.3), polarization(P0, OPTICAL, 0.9))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = StrangSolution(sys, (z, z), L, 1e-4)
        b1, _ = sol.fields(5000 * sol.dtau)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.allclose(b1, 5000 * sol.dtau)
    assert held < 1e6   # 5,001 kept states would take 10 MB
    assert np.array_equal(sol.fields(2 * sol.dtau)[0], z + sol.dtau + sol.dtau)  # restarts


def test_strang_solution_exact_step_times(monkeypatch):
    """k*dtau resolves to step k, not to k - 1 plus a partial step, even
    where tau/dtau rounds below k."""
    dtaus = []
    monkeypatch.setattr(amp, "strang_step", lambda sys, f, L, dt: dtaus.append(dt) or f)
    z = np.zeros(16, complex)
    sys = build_macro_system(P0, polarization(P0, ACOUSTIC, 0.3), polarization(P0, OPTICAL, 0.9))
    sol = StrangSolution(sys, (z, z), L, 1 / 33333)
    tau = 16669 * sol.dtau
    assert np.floor(tau / sol.dtau) == 16668
    sol.fields(tau)
    assert dtaus == [sol.dtau] * 16669
    sol.fields(tau)
    assert len(dtaus) == 16669


# ---------------------------------------------------------------------------
# second-order correctors


def _smooth_fields(rng, n=NG):
    y = amp.grid_points(L, n)
    f1 = np.exp(2j * np.pi * y / L) * np.exp(-0.3 * (y - L / 2) ** 2 / 9)
    f2 = (0.4 + 0.2j) * np.exp(-0.2 * (y - L / 3) ** 2 / 9)
    return (f1.astype(complex), f2.astype(complex))


def test_second_order_zero():
    p = family_nl()
    sys = build_macro_system(p, polarization(p, ACOUSTIC, 0.3),
                             polarization(p, OPTICAL, 0.9))
    z = np.zeros(NG, complex)
    s = second_order_amplitudes(p, sys, (z, z), (z, z), L=L)
    for v in s.values():
        assert np.all(v == 0.0)


def test_second_order_defect():
    """H(O,T) A_2 + K = 0 pointwise, recomputed independently."""
    rng = np.random.RandomState(5)
    p = model.make_params(v1=(1.0, 0.3, 0.1), v2=(2.0, 0.4, 0.0),
                          w1=(1.0, 0.25, 0.05), w2=(1.0, 0.35, 0.0))
    w1 = polarization(p, ACOUSTIC, 0.3)
    w2 = polarization(p, OPTICAL, 0.9)
    sys = build_macro_system(p, w1, w2)
    fields = _smooth_fields(rng)
    dy = tuple(spectral_derivative(f, L) for f in fields)
    s = second_order_amplitudes(p, sys, fields, dy, L=L)
    a1 = w1.amplitude_vector(fields[0])
    a2 = w2.amplitude_vector(fields[1])
    for iota, om_v, th_v, weight in corrector_carriers(NONRESONANT, w1, w2):
        K = compute_K(iota, a1, a2, p, w1.theta, w2.theta)
        H = dispersion_matrix(p, om_v, th_v)
        A = s[iota]
        for i in (0, 1):
            defect = weight * (H[i, 0] * A[0] + H[i, 1] * A[1]) + K[i]
            assert np.abs(defect).max() < 1e-9


def test_second_order_gauge_and_pi_formula():
    p = P0
    n = NG
    y = amp.grid_points(L, n)
    w1 = polarization(p, ACOUSTIC, np.pi)
    w2 = polarization(p, OPTICAL, 0.9)
    sys = build_macro_system(p, w1, w2)
    b1 = np.sin(2 * np.pi * y / L).astype(complex)
    b2 = np.zeros(n, complex)
    dy = tuple(spectral_derivative(f, L) for f in (b1, b2))
    s = second_order_amplitudes(p, sys, (b1, b2), dy, L=L)
    # gauge: free component vanishes
    assert np.all(s[1][0] == 0.0)
    # A^{(2)}_{2,n} = v21/(c2-c1) * dy A^{(1)}; amplitude (2/2)*(2pi/L)
    amp_val = np.abs(s[1][1]).max()
    assert abs(amp_val - 2 * np.pi / L) < 1e-10


def test_second_order_near_resonance_raises():
    p = family_nl()
    w1, w2 = resonant_pair(p, 0.0)
    sys_bad = amp.MacroSystem(NONRESONANT, (w1, w2), (0.0, 0.0))
    rng = np.random.RandomState(6)
    fields = _smooth_fields(rng)
    dy = tuple(spectral_derivative(f, L) for f in fields)
    with pytest.raises(NearResonance):
        second_order_amplitudes(p, sys_bad, fields, dy, L=L)


def test_relations_two_quotient_forms_agree():
    """The two printed quotient forms of the corrector relation agree once
    the transport equation supplies the tau derivative."""
    rng = np.random.RandomState(7)
    p = model.make_params(v1=(1.0, 0.3, 0.0), v2=(2.0, 0.4, 0.0),
                          w1=(1.0, 0.25, 0.0), w2=(1.0, 0.35, 0.0))
    for th in (0.3, 1.1, 2.0):
        for branch in (ACOUSTIC, OPTICAL):
            w = polarization(p, branch, th)
            b = _smooth_fields(rng)[0]
            dyb = spectral_derivative(b, L)
            gv = amp.group_velocity(p, branch, th)
            dtaub = gv * dyb
            eit = np.exp(1j * th)
            P = p.V1.k1 * (eit + 1.0)
            form1 = (2j * w.omega * dtaub - p.V1.k1 * eit * (-w.rho * dyb)) / P
            form2 = (2j * w.omega * (-w.rho * dtaub)
                     + p.V2.k1 * np.conj(eit) * dyb) / (w.omega ** 2 - p.c2)
            assert np.abs(form1 - form2).max() < 1e-9


def test_resonant_corrector_row_defects():
    """In the resonant regime the full eps^2 bracket must vanish row by
    row once the coupled equations supply the tau derivatives.  This
    pins the sign of the quadratic extras in the corrector relations."""
    for gamma, cval in ((2.0, 1.0), (2.0, 0.5), (7.0, 0.0)):
        th1 = {1.0: 0.0, 0.5: np.pi / 2, 0.0: np.pi}[cval]
        r = solve_family_ratio(gamma, cval)
        p = model.make_params(v1=(1.0, 0.3, 0.0), v2=(gamma, 0.2, 0.0),
                              w1=(r, 0.4, 0.0), w2=(r, 1.0, 0.0))
        w1, w2 = resonant_pair(p, th1)
        sys = build_macro_system(p, w1, w2)
        rng = np.random.RandomState(8)
        fields = _smooth_fields(rng)
        dy = tuple(spectral_derivative(f, L) for f in fields)
        dtau = tau_derivative(sys, fields, L)
        s = second_order_amplitudes(p, sys, fields, dy, L=L)
        a1v, a2v = w1.amplitude_vector(fields[0]), w2.amplitude_vector(fields[1])
        kx = {1: tuple(np.conj(c) for c in compute_K((1, -2), a1v, a2v, p, w1.theta, w2.theta)),
              2: compute_K((1, 1), a1v, a2v, p, w1.theta, w2.theta)}
        for idx, wv in ((1, w1), (2, w2)):
            dt = wv.amplitude_vector(dtau[idx - 1])
            dyv = wv.amplitude_vector(dy[idx - 1])
            e = np.exp(1j * wv.theta)
            D = (-2j * wv.omega * dt[0] + p.V1.k1 * e * dyv[1],
                 -2j * wv.omega * dt[1] - p.V2.k1 * np.conj(e) * dyv[0])
            H = dispersion_matrix(p, wv.omega, wv.theta)
            A = s[idx]
            for i in (0, 1):
                defect = D[i] + H[i, 0] * A[0] + H[i, 1] * A[1] + kx[idx][i]
                assert np.abs(defect).max() < 1e-9, (gamma, cval, idx, i)
