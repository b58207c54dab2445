import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

from _helpers import (det_h, find_acoustic_optical_resonance, p0, per_call_corrector,
                      random_valid_params, strang_states)
from dichain import amplitude as amp
from dichain import model
from dichain.amplitude import (NONRESONANT, RESONANT_GENERIC, RESONANT_HALF_PI,
                               RESONANT_PI, NearResonance,
                               ODEReferenceSolution, StrangSolution, build_macro_system,
                               compute_K, corrector_carriers, coupling_coefficients,
                               second_order_amplitudes, sech_envelope,
                               spectral_derivative, tau_derivative)
from dichain.resonance import NotResonant, family_params, solve_family_ratio, wrap_theta
from dichain.spectrum import ACOUSTIC, OPTICAL, dispersion_matrix, polarization

P0 = p0()
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
    # the band-edge optical velocity (-5.9e-17 in floating point) is zero
    assert sysh.velocities[0] > 0.1 and sysh.velocities[1] == 0.0


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
    ref = ODEReferenceSolution(sys, f0, 1.0)
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


def _self_convergence_order(solve):
    """log2 of the ratio of successive differences of the state at
    tau = 1 that ``solve(sys, f0, dtau)`` returns for dtau = 0.04, 0.02,
    0.01, on the theta1 = pi/2 system of criterion 8."""
    rh = solve_family_ratio(2.0, 0.5)
    p = family_nl(b=rh)
    sys = build_macro_system(p, *resonant_pair(p, np.pi / 2))
    assert abs(sys.velocities[0]) > 0.1  # advection active: splitting error visible
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.3, 0.5) * np.exp(0.4j))
    sols = {dtau: solve(sys, f0, dtau) for dtau in (0.04, 0.02, 0.01)}
    d1 = max(np.abs(sols[0.04][i] - sols[0.02][i]).max() for i in (0, 1))
    d2 = max(np.abs(sols[0.02][i] - sols[0.01][i]).max() for i in (0, 1))
    return np.log2(d1 / d2)


def test_evolve_self_convergence_order_two():
    """The bare Strang step is second order."""
    def strang_steps(sys, f0, dtau):
        for _ in range(round(1.0 / dtau)):
            f0 = amp.strang_step(sys, f0, L, dtau)
        return f0
    assert _self_convergence_order(strang_steps) >= 2.0 - 0.1


def test_strang_solution_self_convergence_order_four():
    """StrangSolution's triple jump of Strang steps is fourth order."""
    order = _self_convergence_order(lambda sys, f0, dtau: strang_states(sys, f0, L, 1.0, dtau)[-1])
    assert order >= 3.9


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
    assert len(sol._states) == 1


def _family_system(c):
    """The resonant family at gamma = 2 and c, with theta1 = arccos(2c - 1)."""
    p = family_nl(b=solve_family_ratio(2.0, c))
    return build_macro_system(p, *resonant_pair(p, np.arccos(2 * c - 1)))


def _per_field_strang_step(sys, fields, L, dtau):
    """The Strang step as it was before the envelopes were stacked: one
    spectral shift per moving envelope, each with its own wavenumbers and
    phase, and the classical 4-stage step on the two fields apart."""
    def advect(f, dt):
        out = []
        for b, v in zip(f, sys.velocities):
            if v != 0.0:
                kappa = 2.0 * np.pi * np.fft.fftfreq(len(b), d=L / len(b))
                b = np.fft.ifft(np.fft.fft(b) * np.exp(1j * kappa * (v * dt)))
            out.append(b)
        return out

    def rhs(b1, b2):
        return sys.k1 * np.conj(b1) * b2, sys.k2 * b1 * b1

    b1, b2 = advect(fields, 0.5 * dtau)
    k1a, k2a = rhs(b1, b2)
    k1b, k2b = rhs(b1 + 0.5 * dtau * k1a, b2 + 0.5 * dtau * k2a)
    k1c, k2c = rhs(b1 + 0.5 * dtau * k1b, b2 + 0.5 * dtau * k2b)
    k1d, k2d = rhs(b1 + dtau * k1c, b2 + dtau * k2c)
    return advect((b1 + dtau / 6.0 * (k1a + 2 * k1b + 2 * k1c + k1d),
                   b2 + dtau / 6.0 * (k2a + 2 * k2b + 2 * k2c + k2d)), 0.5 * dtau)


# at c = 0.5 the optical envelope is at rest; the acoustic one is stopped by hand
@pytest.mark.parametrize("c,zero_row", [(0.5, None), (0.72, None), (0.72, 0)],
                         ids=["half-pi", "generic-moving", "acoustic-at-rest"])
def test_strang_step_bit_equal_to_per_field_step(c, zero_row):
    """Stacking the envelopes into one FFT pass and one RK4 stage, with
    cached phases, changes no bit: 50 full steps and one partial step."""
    sys = _family_system(c)
    if zero_row is not None:
        vels = list(sys.velocities)
        vels[zero_row] = 0.0
        sys = dataclasses.replace(sys, velocities=tuple(vels))
    n, dtau = 256, 1e-3
    f0 = (sech_envelope(L, n, 1.0, 0.5), sech_envelope(L, n, 0.5, 0.5) * np.exp(0.4j))
    new, old = f0, f0
    for dt in [dtau] * 50 + [0.37 * dtau]:
        new = amp.strang_step(sys, new, L, dt)
        old = _per_field_strang_step(sys, old, L, dt)
        assert all(np.array_equal(a, b) for a, b in zip(new, old))
    assert all(np.shape(b) == (n,) for b in new)


def test_advection_leaves_a_zero_velocity_row_untouched():
    sys = dataclasses.replace(_family_system(0.72), velocities=(0.29, 0.0))
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.5, 0.5))
    b1, b2 = amp._advect_pair(sys, f0, L, 0.3)
    assert b2 is f0[1]
    assert not np.array_equal(b1, f0[0])


def test_strang_step_makes_four_ffts_and_no_phase_on_a_cache_hit(monkeypatch):
    sys = _family_system(0.72)
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.5, 0.5))
    amp.strang_step(sys, f0, L, 1e-3)  # fills the phase cache
    calls = collections.Counter()
    for mod, name in ((np.fft, "fft"), (np.fft, "ifft"), (np.fft, "fftfreq"), (np, "exp")):
        def counted(*a, _fn=getattr(mod, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(mod, name, counted)
    amp.strang_step(sys, f0, L, 1e-3)
    assert calls == {"fft": 2, "ifft": 2}


def test_strang_solution_keeps_only_its_first_steps(monkeypatch):
    """Stepping far along keeps the states of the first KEEP_STEPS steps
    and the cursor only; an earlier time comes back from a kept state."""
    # one count per Strang step: exact under composition, unlike a sum of substeps
    monkeypatch.setattr(amp, "strang_step", lambda sys, f, L, dt: (f[0] + 1, f[1] + 1))
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
    assert np.array_equal(b1, z + 3 * 5000)  # three Strang steps per composed step
    assert held < 1e6   # 5,001 kept states would take 10 MB
    assert np.array_equal(sol.fields(2 * sol.dtau)[0], z + 3 * 2)  # a kept step
    assert len(sol._states) == amp.KEEP_STEPS + 1


def test_strang_solution_steps_on_from_the_latest_kept_state(monkeypatch):
    """A kept step comes back without a step; a step past KEEP_STEPS
    resumes from the last kept state, or from the cursor when that is
    later and not past it."""
    calls = []
    monkeypatch.setattr(amp, "strang_step",
                        lambda sys, f, L, dt: calls.append(dt) or (f[0] + 1, f[1] + 1))
    z = np.zeros(16, complex)
    sys = build_macro_system(P0, polarization(P0, ACOUSTIC, 0.3), polarization(P0, OPTICAL, 0.9))
    sol = StrangSolution(sys, (z, z), L, 0.25)
    K = amp.KEEP_STEPS

    def steps(k):
        """Composed steps taken to reach step k; checks the state there."""
        calls.clear()
        b1, _ = sol.fields(k * sol.dtau)
        assert np.array_equal(b1, z + 3 * k)
        return len(calls) // 3

    assert steps(10) == 10
    assert steps(3) == 0
    assert steps(K + 20) == K + 10    # from kept step 10
    assert len(sol._states) == K + 1
    assert steps(K + 5) == 5          # from kept step K: the cursor is past it
    assert steps(K + 30) == 25        # from the cursor at K + 5
    assert steps(K) == 0
    assert steps(7) == 0
    assert len(sol._states) == K + 1


def test_triple_jump_weights():
    # Yoshida's order-4 weights, kept beside composed_step so that no
    # change of the lattice integrator moves an envelope step
    w1 = 1 / (2 - 2 ** (1 / 3))
    assert amp.TRIPLE_JUMP == (w1, 1 - 2 * w1, w1)


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
    assert dtaus == [w * sol.dtau for w in amp.TRIPLE_JUMP] * 16669
    sol.fields(tau)
    assert len(dtaus) == 3 * 16669


def test_make_solution_steps_strang_by_its_dtau():
    """Every resonant pair, moving (c = 0.5) or at rest (c = 1), gets a
    StrangSolution stepping by STRANG_DTAU unless a dtau is given (a finer
    reference passes one); at rest it matches the DOP853 reference."""
    p = family_nl(b=solve_family_ratio(2.0, 0.5))
    sys = build_macro_system(p, *resonant_pair(p, np.pi / 2))
    z = np.zeros(16, complex)
    assert isinstance(amp.make_solution(sys, (z, z), L), StrangSolution)
    assert amp.make_solution(sys, (z, z), L).dtau == amp.STRANG_DTAU
    assert amp.make_solution(sys, (z, z), L, dtau=2.5e-4).dtau == 2.5e-4

    p = family_nl(b=solve_family_ratio(2.0, 1.0))
    sys = build_macro_system(p, *resonant_pair(p, 0.0))
    assert sys.velocities == (0.0, 0.0)
    f0 = (sech_envelope(L, NG, 1.0, 0.5), sech_envelope(L, NG, 0.3, 0.5))
    sol = amp.make_solution(sys, f0, L)
    assert type(sol) is StrangSolution and sol.dtau == amp.STRANG_DTAU
    ref = ODEReferenceSolution(sys, f0, 1.0)
    # a step time, a tau between steps, then an earlier tau (a kept step)
    for tau in (0.5, 0.5 + 0.4 * amp.STRANG_DTAU, 0.3):
        b, bref = sol.fields(tau), ref.fields(tau)
        for row, row_ref in zip(b, bref):
            assert np.abs(row - row_ref).max() <= 1e-9 * np.abs(row_ref).max()


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
    s = second_order_amplitudes(p, sys, (z, z), (z, z), (z, z))
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
    s = second_order_amplitudes(p, sys, fields, dy, tau_derivative(sys, fields, dy))
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
    s = second_order_amplitudes(p, sys, (b1, b2), dy, tau_derivative(sys, (b1, b2), dy))
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
        second_order_amplitudes(p, sys_bad, fields, dy, tau_derivative(sys_bad, fields, dy))


def test_corrector_solve_checks_nonresonance():
    """The corrector rows are the non-resonance conditions: 3w1 = w1+w2
    and 4w1 = 2w2 for an exact resonant pair, 2w1, 2w2 and w1 +- w2 for a
    non-resonant one, so a pair near a resonance fails in the solve."""
    p = family_params(2.0, 2.0)
    w1, w2 = resonant_pair(p, 0.0)
    rows = {iota: (om, th) for iota, om, th, _ in
            corrector_carriers(build_macro_system(p, w1, w2).mode, w1, w2)}
    for k, iota in ((3, (1, 2)), (4, (2, 2))):
        assert abs(rows[iota][0] - k * w1.omega) < 1e-10
        assert abs(wrap_theta(rows[iota][1] - k * w1.theta)) < 1e-10
        assert abs(det_h(p, k * w1.omega, k * w1.theta)) > 1e-6

    # an acoustic carrier with an optical wave that is not its partner: the
    # correctors solve at theta1 = 0.3, but at the reference chain's
    # resonance root (2w1, 2th1) lies on the optical branch
    p = p0(v1=(1.0, 0.3, 0.0), w2=(1.0, 0.35, 0.0))
    fields = _smooth_fields(None)
    dy = tuple(spectral_derivative(f, L) for f in fields)
    w2 = polarization(p, OPTICAL, 0.6)
    sys = build_macro_system(p, polarization(p, ACOUSTIC, 0.3), w2)
    second_order_amplitudes(p, sys, fields, dy, tau_derivative(sys, fields, dy))
    (root,) = find_acoustic_optical_resonance(p)
    w1 = polarization(p, ACOUSTIC, root)
    sys = build_macro_system(p, w1, w2)
    assert sys.mode == NONRESONANT
    with pytest.raises(NotResonant):
        coupling_coefficients(p, w1, w2)
    with pytest.raises(NearResonance, match=r"det H\(2\.366, 2\.229\)"):
        second_order_amplitudes(p, sys, fields, dy, tau_derivative(sys, fields, dy))


def test_corrector_matrix_kept_per_params_and_carrier():
    """A chain with the same carriers but another V2.k1 gets its own H,
    whichever chain came first, and the solve is the per-call formula bit
    for bit; a near-singular H raises on every build, not only the first."""
    p = family_nl()
    q = dataclasses.replace(p, V2=dataclasses.replace(p.V2, k1=2.5))
    w1, w2 = polarization(p, ACOUSTIC, 0.3), polarization(p, OPTICAL, 0.9)
    sys = build_macro_system(p, w1, w2)
    fields = _smooth_fields(None)
    dy = tuple(spectral_derivative(f, L) for f in fields)
    dtau = tau_derivative(sys, fields, dy)
    a1, a2 = w1.amplitude_vector(fields[0]), w2.amplitude_vector(fields[1])
    for chain in (p, q, p, q):
        s = second_order_amplitudes(chain, sys, fields, dy, dtau)
        for iota, om_v, th_v, weight in corrector_carriers(sys.mode, w1, w2):
            K = compute_K(iota, a1, a2, chain, w1.theta, w2.theta)
            assert np.array_equal(s[iota], per_call_corrector(chain, om_v, th_v, K, weight))

    w1, w2 = resonant_pair(p, 0.0)
    sys_bad = amp.MacroSystem(NONRESONANT, (w1, w2), (0.0, 0.0))
    dtau = tau_derivative(sys_bad, fields, dy)
    for _ in range(2):
        with pytest.raises(NearResonance, match="below tolerance"):
            second_order_amplitudes(p, sys_bad, fields, dy, dtau)


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
        dtau = tau_derivative(sys, fields, dy)
        s = second_order_amplitudes(p, sys, fields, dy, dtau)
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
