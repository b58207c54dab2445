import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

from _helpers import (coupling_closed_form, coupling_prefactors, det_h, envelope_products,
                      find_acoustic_optical_resonance, hand_expanded_K, linear_apply, p0,
                      per_call_corrector, per_call_wave_corrector, random_valid_params,
                      strang_states)
from dichain import amplitude as amp
from dichain import model
from dichain.amplitude import (NearResonance, ODEReferenceSolution, StrangSolution,
                               build_macro_system, carriers, second_order_amplitudes,
                               sech_envelope, source_vectors, spectral_derivative,
                               tau_derivative)
from dichain.model import carrier_product_force
from dichain.resonance import family_params, solve_family_ratio, wrap_theta
from dichain.spectrum import (ACOUSTIC, OPTICAL, dispersion_matrix, group_velocity,
                              polarization)

P0 = p0()
L, NG = 40.0, 128


def family_nl(gamma=2.0, b=2.0, v12=0.3, v22=0.2, w12=0.4, w22=1.0):
    return model.make_params(v1=(1.0, v12, 0.0), v2=(gamma, v22, 0.0),
                             w1=(b, w12, 0.0), w2=(b, w22, 0.0))


def resonant_pair(p, theta1):
    w1 = polarization(p, ACOUSTIC, theta1)
    w2 = polarization(p, OPTICAL, wrap_theta(2 * theta1))
    return w1, w2


def couplings(p, w1, w2):
    """(k1, k2) of a resonant pair, as build_macro_system projects them."""
    sys = build_macro_system(p, w1, w2)
    assert sys.resonant
    return sys.k1, sys.k2


def regime_of(sys):
    """The regime a MacroSystem's flag and its waves' degenerate flags
    name: "pi" when w1 sits at theta1 = +-pi, "half-pi" when w2 sits at
    the band edge (theta1 = +-pi/2), else "generic" or "nonresonant"."""
    w1, w2 = sys.waves
    if not sys.resonant:
        return "nonresonant"
    return "pi" if w1.degenerate else "half-pi" if w2.degenerate else "generic"


# ---------------------------------------------------------------------------
# quadratic sources: the bond stencil and its constant vectors kappa


def _random_amplitudes(rng, n=3):
    return rng.randn(2, n) + 1j * rng.randn(2, n)


def test_compute_k_zero():
    """A zero carrier has no product with any other."""
    rng = np.random.RandomState(2)
    p, zero = family_nl(), np.zeros((2, 4), complex)
    for th_a, th_c in ((0.7, 1.4), (0.0, np.pi), (np.pi / 2, -0.3)):
        c = _random_amplitudes(rng, 4)
        assert np.all(carrier_product_force(p, zero, th_a, c, th_c) == 0.0)
        assert np.all(carrier_product_force(p, c, th_c, zero, th_a) == 0.0)


def test_compute_k_dc_hand_value():
    # theta1 = theta2 = pi, real amplitudes (a_n, b_n): the mean source
    # B(a, conj(a)) summed over both waves has
    # row 1 = sum_n 4 v12 a_n b_n - w12 a_n^2
    p = model.make_params(v1=(1.0, 0.7, 0.0), v2=(2.0, 0.0, 0.0),
                          w1=(1.0, 0.25, 0.0), w2=(1.0, 0.0, 0.0))
    a1 = np.array([0.4 + 0j, 0.9 + 0j])
    a2 = np.array([-0.3 + 0j, 0.5 + 0j])
    k = sum(carrier_product_force(p, a, np.pi, np.conj(a), -np.pi) for a in (a1, a2))
    expected = (4 * 0.7 * 0.4 * 0.9 - 0.25 * 0.4 ** 2) \
        + (4 * 0.7 * (-0.3) * 0.5 - 0.25 * 0.3 ** 2)
    assert abs(k[0] - expected) < 1e-14


def test_compute_k_conjugation_symmetry():
    """Conjugating amplitudes AND carriers (theta -> -theta) conjugates
    every product; at theta in {0, pi} the carrier factors are real and
    amplitude conjugation alone suffices."""
    rng = np.random.RandomState(0)
    p = family_nl()
    a, c = _random_amplitudes(rng), _random_amplitudes(rng)
    for th_a, th_c in ((0.8, 1.6), (0.8, -1.6), (0.8, -0.8)):
        k = carrier_product_force(p, a, th_a, c, th_c)
        kc = carrier_product_force(p, np.conj(a), -th_a, np.conj(c), -th_c)
        np.testing.assert_allclose(kc, np.conj(k), atol=1e-12)
    for th_a, th_c in ((0.0, 0.0), (np.pi, np.pi), (0.0, np.pi)):
        k = carrier_product_force(p, a, th_a, c, th_c)
        kc = carrier_product_force(p, np.conj(a), th_a, np.conj(c), th_c)
        np.testing.assert_allclose(kc, np.conj(k), atol=1e-12)


def test_compute_k_quadratic_scaling():
    """The stencil is bilinear and symmetric in its two carriers, so each
    source scales with the square of the amplitudes."""
    rng = np.random.RandomState(1)
    p = family_nl()
    a, c = _random_amplitudes(rng), _random_amplitudes(rng)
    lam, mu = 1.7, -0.4 + 0.9j
    k = carrier_product_force(p, a, 0.8, c, 1.6)
    np.testing.assert_allclose(carrier_product_force(p, lam * a, 0.8, mu * c, 1.6),
                               lam * mu * k, rtol=1e-12)
    np.testing.assert_allclose(carrier_product_force(p, c, 1.6, a, 0.8), k, rtol=1e-12)
    np.testing.assert_allclose(carrier_product_force(p, lam * a, 0.8, lam * a, 0.8),
                               lam ** 2 * carrier_product_force(p, a, 0.8, a, 0.8),
                               rtol=1e-12)


# (label, gamma, c, theta1) of each resonant regime the code distinguishes;
# theta1 = arccos(2c - 1)
RESONANT_REGIMES = [("generic", 2.0, 0.72, np.arccos(2 * 0.72 - 1)),
                    ("half-pi", 2.0, 0.5, np.pi / 2), ("pi", 5.0, 0.0, np.pi),
                    ("c1", 2.0, 1.0, 0.0)]


@pytest.mark.parametrize("regime", ["nonresonant"] + [r[0] for r in RESONANT_REGIMES])
def test_sources_match_hand_expanded_oracle(regime):
    """kappa times the envelope products is the hand-expanded source for
    all five product carriers, on random envelopes.  The error is measured
    against the sum of the absolute terms, as the mean carrier (1, -1)
    nearly cancels; that carrier's source is real and equals the oracle's
    real part."""
    if regime == "nonresonant":
        p = model.make_params(v1=(1.0, 0.3, 0.1), v2=(2.0, 0.4, 0.0),
                              w1=(1.0, 0.25, 0.05), w2=(1.0, 0.35, 0.0))
        w1, w2 = polarization(p, ACOUSTIC, 0.3), polarization(p, OPTICAL, 0.9)
    else:
        _, gamma, cval, th1 = next(r for r in RESONANT_REGIMES if r[0] == regime)
        p = family_nl(gamma, solve_family_ratio(gamma, cval))
        w1, w2 = resonant_pair(p, th1)
    rng = np.random.RandomState(9)
    fields = tuple(rng.randn(16) + 1j * rng.randn(16) for _ in range(2))
    a1, a2 = w1.amplitude_vector(fields[0]), w2.amplitude_vector(fields[1])
    kappa = source_vectors(p, w1, w2)
    for iota in [(1, 1), (2, 2), (1, 2), (1, -2), (1, -1)]:
        terms = [np.multiply.outer(k, product)
                 for k, product in zip(kappa[iota], envelope_products(iota, fields))]
        source = sum(terms)
        oracle = np.array(hand_expanded_K(iota, a1, a2, p, w1.theta, w2.theta))
        if iota == (1, -1):
            assert np.isrealobj(source)
            oracle = oracle.real
        scale = sum(np.abs(t) for t in terms) + np.abs(oracle)
        assert np.all(np.abs(source - oracle) <= 1e-12 * scale), (regime, iota)


# ---------------------------------------------------------------------------
# coupling coefficients


def test_coupling_pi_case():
    # gamma=7 admits the band-edge resonance theta1=pi
    r = solve_family_ratio(7.0, 0.0)
    p = model.make_params(v1=(1.0, 0.3, 0.0), v2=(7.0, 0.2, 0.0),
                          w1=(r, 0.4, 0.0), w2=(r, 1.0, 0.0))
    w1, w2 = resonant_pair(p, np.pi)
    k1, k2 = couplings(p, w1, w2)
    P1, P2 = coupling_prefactors(p, w1, w2)
    assert abs(k1 / P1 - (-0.4)) < 1e-12
    assert abs(k2 / P2 - (-0.4)) < 1e-12
    sys = build_macro_system(p, w1, w2)
    assert regime_of(sys) == "pi"
    assert max(abs(v) for v in sys.velocities) < 1e-12


def test_coupling_family_theta0():
    p = family_nl(w12=0.4, w22=1.0)
    w1, w2 = resonant_pair(p, 0.0)
    k1, k2 = couplings(p, w1, w2)
    P1, P2 = coupling_prefactors(p, w1, w2)
    assert abs(coupling_closed_form(p, w1, w2).d - 1.0) < 1e-12
    assert abs(k1 / P1 - (1.0 * 1.0 - 0.4)) < 1e-12
    assert abs(k2 / P2 - (1.0 * 1.0 - 0.4)) < 1e-12


def test_coupling_half_pi_hand_value():
    # gamma = 2, theta1 = pi/2: omega1^2 - c1 = 1 - sqrt5, omega1^2 - c2 = -1 - sqrt5
    # and rho1 = (1 - sqrt5)/(1 + i), so the pi/2 closed forms reduce to
    #   d1 = v12 (3 - sqrt5) + v22 (1 - sqrt5)/2 - i w22 (3 - sqrt5)/2,
    #   k2 = (w22 (3 - sqrt5) - 2i v22 (2 - sqrt5)) / (4 omega1)
    p = family_nl(b=solve_family_ratio(2.0, 0.5), v12=0.3, v22=0.2, w22=1.0)
    w1, w2 = resonant_pair(p, np.pi / 2)
    assert regime_of(build_macro_system(p, w1, w2)) == "half-pi"
    k1, k2 = couplings(p, w1, w2)
    P1, _ = coupling_prefactors(p, w1, w2)
    s5 = np.sqrt(5.0)
    assert abs(w1.omega ** 2 - p.c1 - (1.0 - s5)) < 1e-12
    assert abs(k1 / P1 - (0.3 * (3 - s5) + 0.2 * (1 - s5) / 2 - 1j * 1.0 * (3 - s5) / 2)) < 1e-12
    assert abs(k2 - (1.0 * (3 - s5) - 2j * 0.2 * (2 - s5)) / (4 * w1.omega)) < 1e-12


def test_coupling_generic_matches_independent_evaluation():
    """At the generic family point c = 0.72 the projected couplings are
    the closed form's d1 and d2 times the hand-derived prefactors
    (omega^2 - c2) / (n i omega ((omega^2 - c1) + (omega^2 - c2)))."""
    c = 0.72
    r = solve_family_ratio(2.0, c)
    p = model.make_params(v1=(1.0, 0.31, 0.0), v2=(2.0, 0.17, 0.0),
                          w1=(r, 0.23, 0.0), w2=(r, 0.41, 0.0))
    th1 = float(np.arccos(2 * c - 1.0))
    w1, w2 = resonant_pair(p, th1)
    k1, k2 = couplings(p, w1, w2)
    assert np.isfinite(k1) and np.isfinite(k2)
    assert abs(k1) > 0 and abs(k2) > 0

    cf = coupling_closed_form(p, w1, w2)
    assert cf.d is not None  # the generic closed form
    om1, om2 = w1.omega, w2.omega
    k1_hand = cf.d1 / (1j * om1) * (om1 ** 2 - p.c2) / ((om1 ** 2 - p.c1) + (om1 ** 2 - p.c2))
    k2_hand = cf.d2 / (2j * om2) * (om2 ** 2 - p.c2) / ((om2 ** 2 - p.c1) + (om2 ** 2 - p.c2))
    assert abs(k1 - k1_hand) < 1e-12
    assert abs(k2 - k2_hand) < 1e-12


# nonlinear coefficients (v12, v22, w12, w22) of the oracle grid
ORACLE_NL = ((0.3, 0.2, 0.4, 1.0), (-0.45, 0.35, 0.15, -0.6))


def test_coupling_projection_matches_closed_forms():
    """The projected couplings against the paper's closed forms in all
    three regimes, at family points (gamma, c) with both signs of theta1:
    c = 0 is the pi regime (gamma >= 5 admits it), c = 0.5 the pi/2
    regime, the rest generic.  The generic closed form loses digits near
    c = 0.5 (|k1| ~ 225 within 3e-4 of it), which the grid stays clear of;
    on it the two agree to 6e-15 relative."""
    modes = collections.Counter()
    for gamma in (1.5, 2.0, 3.0, 5.0, 7.0):
        for c in (0.0, 0.2, 0.5, 0.72, 0.9, 1.0):
            r = solve_family_ratio(gamma, c)
            if r is None:
                continue
            th1 = float(np.arccos(2 * c - 1.0))
            for v12, v22, w12, w22 in ORACLE_NL:
                p = family_nl(gamma, r, v12, v22, w12, w22)
                for sign in (1.0, -1.0):
                    w1, w2 = resonant_pair(p, sign * th1)
                    modes[regime_of(build_macro_system(p, w1, w2))] += 1
                    k1, k2 = couplings(p, w1, w2)
                    cf = coupling_closed_form(p, w1, w2)
                    assert abs(k1 - cf.k1) <= 1e-12 * abs(cf.k1), (gamma, c, sign)
                    assert abs(k2 - cf.k2) <= 1e-12 * abs(cf.k2), (gamma, c, sign)
    assert modes == {"generic": 72, "half-pi": 20, "pi": 8}


def test_macro_system_modes():
    p = family_nl()
    w1 = polarization(p, ACOUSTIC, 0.3)
    w2 = polarization(p, OPTICAL, 0.9)
    sys = build_macro_system(p, w1, w2)
    assert not sys.resonant and sys.k1 == 0.0 and sys.k2 == 0.0

    w1r, w2r = resonant_pair(p, 0.0)
    sysr = build_macro_system(p, w1r, w2r)
    assert regime_of(sysr) == "generic"
    assert abs(w2r.omega - 2 * w1r.omega) < 1e-10

    rh = solve_family_ratio(2.0, 0.5)
    ph = family_nl(b=rh)
    sysh = build_macro_system(ph, *resonant_pair(ph, np.pi / 2))
    assert regime_of(sysh) == "half-pi"
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


def _sech_tanh_error(gamma, c, dtau):
    """Largest error of StrangSolution by dtau, relative to each field's
    maximum at tau = 0.5, 1, ..., 4, on the family chain at gamma and c
    with both waves at rest and B2(0) = 0.  There the envelopes solve
    degenerate second-harmonic generation exactly (Armstrong, Bloembergen,
    Ducuing and Pershan, Phys. Rev. 127 (1962) 1918): B1 = A sech(lam A tau)
    and B2 = (k2/lam) A tanh(lam A tau), lam = sqrt(-k1 k2), pointwise in y."""
    p = family_nl(gamma=gamma, b=solve_family_ratio(gamma, c))
    sys = build_macro_system(p, *resonant_pair(p, np.arccos(2 * c - 1)))
    assert sys.resonant and sys.velocities == (0.0, 0.0)
    a = sech_envelope(L, NG, 1.0, 0.5)
    lam = np.sqrt(-sys.k1 * sys.k2)
    sol = StrangSolution(sys, (a, np.zeros(NG, complex)), L, dtau)
    err = 0.0
    for tau in 0.5 * np.arange(1, 9):
        exact = (a / np.cosh(lam * a * tau), sys.k2 / lam * a * np.tanh(lam * a * tau))
        err = max(err, *(np.abs(b - x).max() / np.abs(x).max()
                         for b, x in zip(sol.fields(tau), exact)))
    return err


def test_strang_solution_matches_the_exact_sech_tanh_solution():
    """At the step the runs take, StrangSolution is within 1e-10 of the
    exact solution at c = 1 (6.0e-12) and at the pi point gamma = 5, c = 0
    (2.4e-13), and its error falls ~16x per halving of the step at c = 1;
    one triple-jump weight off by 1e-3 errs by 1e-3."""
    coarse = _sech_tanh_error(2.0, 1.0, amp.STRANG_DTAU)
    assert coarse <= 1e-10
    assert 14.0 <= coarse / _sech_tanh_error(2.0, 1.0, amp.STRANG_DTAU / 2) <= 18.0
    assert _sech_tanh_error(5.0, 0.0, amp.STRANG_DTAU) <= 1e-10


# the energy identity: on a mass-consistent chain (mu*V2' = V1' with
# mu = v11/v21, in the family v22 = gamma*v12 and v23 = gamma*v13, the
# condition under which the lattice's Hamiltonian is conserved),
# E = int e1|B1|^2 + e2|B2|^2 dy with e_w = omega_w^2 <r_w, r_w>_M is
# conserved by the envelope equations exactly when e1 k1 + e2 conj(k2) = 0


def _energy_weights(p, sys):
    """e_w = omega_w^2 <r_w, r_w>_M per wave, in the mass-weighted product."""
    return [w.omega ** 2 * (p.M_w * abs(r[0]) ** 2 + p.m_w * abs(r[1]) ** 2)
            for w, r in ((w, w.amplitude_vector(1 + 0j)) for w in sys.waves)]


def _energy_identity(p, c):
    """e1 k1 + e2 conj(k2) and the larger of its two terms, at the family
    point c of the chain p."""
    sys = build_macro_system(p, *resonant_pair(p, np.arccos(2 * c - 1)))
    assert sys.resonant
    e1, e2 = _energy_weights(p, sys)
    terms = (e1 * sys.k1, e2 * np.conj(sys.k2))
    return sum(terms), max(map(abs, terms))


def test_energy_identity_holds_on_mass_consistent_chains():
    """Random family points with mass-consistent bonds and random on-site
    terms satisfy the identity to 1e-12 relative; FAM's chain (v22 = 0.2,
    not 2*v12) violates it where the polarizations are complex, by 1.40 at
    c = 0.72, so the check tells the two kinds of chain apart."""
    rng = np.random.RandomState(5)
    checked = 0
    while checked < 20:
        gamma, c = rng.uniform(1.2, 5.0), rng.uniform(0.0, 1.0)
        b = solve_family_ratio(gamma, c)
        if b is None:
            continue
        v12, v13, w12, w13, w22, w23 = rng.uniform(-0.5, 0.5, 6)
        p = model.make_params(v1=(1.0, v12, v13), v2=(gamma, gamma * v12, gamma * v13),
                              w1=(b, w12, w13), w2=(b, w22, w23))
        defect, scale = _energy_identity(p, c)
        assert scale > 1e-3
        assert abs(defect) <= 1e-12 * scale, (gamma, c)
        checked += 1
    defect, scale = _energy_identity(family_nl(b=solve_family_ratio(2.0, 0.72)), 0.72)
    assert abs(defect) == pytest.approx(1.40, abs=0.01) and abs(defect) > 0.1 * scale


def _energy_drift(c, dtau):
    """Largest relative drift of E over a Strang run by dtau to tau = 4 on
    the mass-consistent chain gamma = 2, v12 = 0.3, v22 = 0.6, w12 = 0.4,
    w22 = 1.0 at the family point c, from sech envelopes of 1 and 0.5."""
    p = family_nl(b=solve_family_ratio(2.0, c), v22=0.6)
    sys = build_macro_system(p, *resonant_pair(p, np.arccos(2 * c - 1)))
    e = _energy_weights(p, sys)
    f0 = (sech_envelope(L, 256, 1.0, 0.5), sech_envelope(L, 256, 0.5, 0.5))
    energy = [sum(ew * np.sum(np.abs(b) ** 2) for ew, b in zip(e, state))
              for state in strang_states(sys, f0, L, 4.0, dtau)]
    return max(abs(x - energy[0]) for x in energy) / energy[0]


@pytest.mark.parametrize("c", [0.72, 0.5], ids=["generic", "half-pi"])
def test_strang_solution_conserves_the_energy_to_order_four(c):
    """E drifts by at most 1e-10 at the step the runs take (1.29e-11 at
    c = 0.72, 5.83e-12 at c = 0.5), and the drift falls at least 14x per
    halving of the step (15.8x and 16.7x): the composed step is order 4."""
    coarse, fine = (_energy_drift(c, dtau) for dtau in (2 * amp.STRANG_DTAU, amp.STRANG_DTAU))
    assert fine <= 1e-10
    assert coarse / fine >= 14.0


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
    """Stepping far along keeps the states of the first KEEP_STATES steps,
    read-only, and the cursor only; an earlier time comes back from a
    kept state."""
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
    assert list(sol._states) == [(k, 0.0) for k in range(amp.KEEP_STATES)]
    assert not any(b.flags.writeable for state in sol._states.values() for b in state)
    assert z.flags.writeable  # the initial fields are kept as a copy


def test_strang_solution_steps_on_from_the_latest_kept_state(monkeypatch):
    """A kept step comes back without a step; a step past the kept ones
    resumes from the last kept step, or from the cursor when that is
    later and not past it."""
    calls = []
    monkeypatch.setattr(amp, "strang_step",
                        lambda sys, f, L, dt: calls.append(dt) or (f[0] + 1, f[1] + 1))
    z = np.zeros(16, complex)
    sys = build_macro_system(P0, polarization(P0, ACOUSTIC, 0.3), polarization(P0, OPTICAL, 0.9))
    sol = StrangSolution(sys, (z, z), L, 0.25)
    K = amp.KEEP_STATES  # steps 0 to K - 1 fill the table

    def steps(k):
        """Composed steps taken to reach step k; checks the state there."""
        calls.clear()
        b1, _ = sol.fields(k * sol.dtau)
        assert np.array_equal(b1, z + 3 * k)
        return len(calls) // 3

    assert steps(10) == 10
    assert steps(3) == 0
    assert steps(K + 20) == K + 10    # from kept step 10
    assert len(sol._states) == K
    assert steps(K + 5) == 6          # from kept step K - 1: the cursor is past it
    assert steps(K + 30) == 25        # from the cursor at K + 5
    assert steps(K - 1) == 0
    assert steps(K) == 1              # from kept step K - 1
    assert steps(7) == 0
    assert len(sol._states) == K


def _counted_strang_step(monkeypatch):
    """Count the real strang_step's calls."""
    calls = []
    step = amp.strang_step
    monkeypatch.setattr(amp, "strang_step",
                        lambda *a: calls.append(a[-1]) or step(*a))
    return calls


def _half_pi_solution(n=64):
    f0 = (sech_envelope(L, n, 1.0, 0.5), sech_envelope(L, n, 0.5, 0.5))
    return StrangSolution(_family_system(0.5), f0, L, amp.STRANG_DTAU)


def test_strang_solution_answers_a_repeated_off_grid_tau_without_a_step(monkeypatch):
    calls = _counted_strang_step(monkeypatch)
    sol = _half_pi_solution()
    first = sol.fields(0.31)
    assert len(calls) == 3 * 13  # twelve whole steps and one partial one
    calls.clear()
    again = sol.fields(0.31)
    assert calls == []
    assert all(a is b for a, b in zip(first, again))
    sol.fields(0.02)  # step 0 is kept: the partial step only
    assert len(calls) == 3


def test_strang_solution_off_grid_states_are_order_independent():
    """Each tau's state, on or off the step grid, equals a fresh
    solution's bit for bit, whichever order the taus are asked in."""
    taus = [0.31, 0.02, 0.1, 0.0625, 0.31, 0.17, 0.02, 0.525, 0.2]
    want = [_half_pi_solution().fields(tau) for tau in taus]
    for order in (taus, taus[::-1], sorted(taus)):
        sol = _half_pi_solution()
        got = {tau: sol.fields(tau) for tau in order}
        for tau, w in zip(taus, want):
            assert all(np.array_equal(a, b) for a, b in zip(got[tau], w)), tau


def test_strang_solution_off_grid_states_are_read_only():
    sol = _half_pi_solution()
    for b in sol.fields(0.31) + sol.fields(0.31):
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0] = 0.0


def test_strang_solution_keeps_a_bounded_table_of_finite_off_grid_states(monkeypatch):
    """Whole and partial steps share one table of KEEP_STATES states: past
    it a tau is stepped on every call and its state is not kept.  A
    non-finite whole or partial step raises, naming its tau, and is not
    kept; every kept state is finite and read-only."""
    calls = []

    def step(sys, f, L, dt):  # short steps and steps past Strang step 18 go non-finite
        calls.append(dt)
        return f[0] + 1, f[1] + (np.nan if abs(dt) < 0.01 or f[0][0].real >= 18 else 1.0)

    monkeypatch.setattr(amp, "strang_step", step)
    z = np.zeros(16, complex)
    sol = StrangSolution(_family_system(0.5), (z, z), L, 0.25)
    with pytest.raises(FloatingPointError, match="tau=0.001"):
        sol.fields(0.001)
    with pytest.raises(FloatingPointError, match="tau=1.75"):  # whole step 7, on the way to 8
        sol.fields(2.0)
    assert list(sol._states) == [(k, 0.0) for k in range(7)]  # the finite steps before it
    K = amp.KEEP_STATES
    taus = [0.55 + 0.15 * i / K for i in range(1, K + 14)]
    for tau in taus:
        assert np.array_equal(sol.fields(tau)[0], z + 3 * 2 + 3)
    assert len(sol._states) == K  # whole steps 0 to 6 and K - 7 partial ones
    assert [key for key in sol._states if key[1] == 0.0] == [(k, 0.0) for k in range(7)]
    with pytest.raises(FloatingPointError, match="tau=0.501"):  # past the cap too
        sol.fields(0.501)
    with pytest.raises(FloatingPointError, match="tau=1.75"):
        sol.fields(1.75)
    calls.clear()
    for tau in taus:
        sol.fields(tau)
    assert len(calls) == 3 * 20  # the 20 taus past the cap, stepped again
    assert len(sol._states) == K
    for state in sol._states.values():
        assert all(np.isfinite(b).all() and not b.flags.writeable for b in state)


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


@pytest.mark.parametrize("resonant", [False, True], ids=["NonResonant", "ResonantGeneric"])
def test_envelope_products_are_those_the_correctors_read(resonant):
    """Each regime builds the products of its product carriers, and when
    resonant B1^2, w2's source, only: no resonant corrector reads
    B1 conj(B2)."""
    w1, w2 = polarization(P0, ACOUSTIC, 0.3), polarization(P0, OPTICAL, 0.9)
    b = np.ones(4, complex)
    read = {c[0] for c in carriers(resonant, w1, w2)[2:]} | ({(1, 1)} if resonant else set())
    assert set(amp._envelope_products(b, b, resonant)) == read


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
    for iota, om_v, th_v in carriers(False, w1, w2)[2:]:
        K = hand_expanded_K(iota, a1, a2, p, w1.theta, w2.theta)
        if iota == (1, -1):
            K = tuple(k.real for k in K)
        H = dispersion_matrix(p, om_v, th_v)
        A = s[iota]
        for i in (0, 1):
            defect = H[i, 0] * A[0] + H[i, 1] * A[1] + K[i]
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
    sys_bad = amp.MacroSystem(False, (w1, w2), (0.0, 0.0))
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
    rows = {iota: (om, th) for iota, om, th in
            carriers(build_macro_system(p, w1, w2).resonant, w1, w2)[2:]}
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
    assert not sys.resonant and sys.k1 == 0.0 and sys.k2 == 0.0
    with pytest.raises(NearResonance, match=r"det H\(2\.366, 2\.229\)"):
        second_order_amplitudes(p, sys, fields, dy, tau_derivative(sys, fields, dy))


def test_corrector_vectors_per_params_and_carrier():
    """Each corrector, on a product or a wave carrier, of two chains that
    differ only in V2.k1, asked in turn, is chi built per call times its
    fields bit for bit; a near-singular H raises on every call."""
    p = family_nl()
    q = dataclasses.replace(p, V2=dataclasses.replace(p.V2, k1=2.5))
    w1, w2 = polarization(p, ACOUSTIC, 0.3), polarization(p, OPTICAL, 0.9)
    sys = build_macro_system(p, w1, w2)
    fields = _smooth_fields(None)
    dy = tuple(spectral_derivative(f, L) for f in fields)
    dtau = tau_derivative(sys, fields, dy)
    for chain in (p, q, p, q):
        s = second_order_amplitudes(chain, sys, fields, dy, dtau)
        for iota, om_v, th_v in carriers(sys.resonant, w1, w2)[2:]:
            assert np.array_equal(s[iota], per_call_corrector(chain, (w1, w2), iota, om_v,
                                                              th_v, fields))
        for k in (1, 2):
            assert np.array_equal(s[k], per_call_wave_corrector(chain, sys, k, fields, dy, dtau))

    w1, w2 = resonant_pair(p, 0.0)
    sys_bad = amp.MacroSystem(False, (w1, w2), (0.0, 0.0))
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
    """In every regime the full eps^2 bracket on each wave carrier must
    vanish row by row once the envelope equations supply the tau
    derivatives, and the component the polarization is normalized by is
    exactly zero.  This pins the sign of the quadratic extras in the
    resonant corrector relations, and the slow-derivative term in all."""
    p_nl = model.make_params(v1=(1.0, 0.3, 0.1), v2=(2.0, 0.4, 0.0),
                             w1=(1.0, 0.25, 0.05), w2=(1.0, 0.35, 0.0))
    cases = [(p_nl, polarization(p_nl, ACOUSTIC, 0.3), polarization(p_nl, OPTICAL, th2))
             for th2 in (0.9, np.pi)]  # the second optical wave at the band edge
    for gamma, cval in ((2.0, 1.0), (2.0, 0.5), (7.0, 0.0)):
        th1 = {1.0: 0.0, 0.5: np.pi / 2, 0.0: np.pi}[cval]
        r = solve_family_ratio(gamma, cval)
        p = model.make_params(v1=(1.0, 0.3, 0.0), v2=(gamma, 0.2, 0.0),
                              w1=(r, 0.4, 0.0), w2=(r, 1.0, 0.0))
        cases.append((p, *resonant_pair(p, th1)))
    modes = []
    for p, w1, w2 in cases:
        sys = build_macro_system(p, w1, w2)
        modes.append(regime_of(sys))
        rng = np.random.RandomState(8)
        fields = _smooth_fields(rng)
        dy = tuple(spectral_derivative(f, L) for f in fields)
        dtau = tau_derivative(sys, fields, dy)
        s = second_order_amplitudes(p, sys, fields, dy, dtau)
        a1v, a2v = w1.amplitude_vector(fields[0]), w2.amplitude_vector(fields[1])
        kx = {1: tuple(np.conj(c) for c in hand_expanded_K((1, -2), a1v, a2v, p,
                                                           w1.theta, w2.theta)),
              2: hand_expanded_K((1, 1), a1v, a2v, p, w1.theta, w2.theta)}
        if not sys.resonant:
            kx = {1: (0.0, 0.0), 2: (0.0, 0.0)}
        for idx, wv in ((1, w1), (2, w2)):
            dt = wv.amplitude_vector(dtau[idx - 1])
            dyv = wv.amplitude_vector(dy[idx - 1])
            e = np.exp(1j * wv.theta)
            D = (-2j * wv.omega * dt[0] + p.V1.k1 * e * dyv[1],
                 -2j * wv.omega * dt[1] - p.V2.k1 * np.conj(e) * dyv[0])
            H = dispersion_matrix(p, wv.omega, wv.theta)
            A = s[idx]
            gauge = 1 if wv.degenerate and wv.branch == OPTICAL else 0
            assert np.all(A[gauge] == 0.0), (regime_of(sys), idx)
            for i in (0, 1):
                defect = D[i] + H[i, 0] * A[0] + H[i, 1] * A[1] + kx[idx][i]
                assert np.abs(defect).max() < 1e-9, (regime_of(sys), idx, i)
    assert modes == ["nonresonant", "nonresonant", "generic", "half-pi", "pi"]


def test_slow_derivative_vector_is_the_lattice_ramp():
    """D r is what the lattice's linear force makes of a linear ramp: for
    u_j = j r e^{i theta j} on a 16-cell ring, e^{-i theta j} L(u)_j -
    j H(0, theta) r = D r in every cell whose neighbours do not wrap, for
    the three polarization forms (1, -rho), (1, 0) and (0, 1)."""
    p = model.make_params(v1=(1.0, 0.3, 0.1), v2=(2.0, 0.4, 0.0),
                          w1=(1.0, 0.25, 0.05), w2=(1.0, 0.35, 0.0))
    j = np.arange(16)
    worst = 0.0
    for theta in (0.0, np.pi / 2, np.pi, 0.3, -2.0):
        forms = [(1.0, 0.0), (0.0, 1.0)] + [polarization(p, b, theta).amplitude_vector(1 + 0j)
                                            for b in (ACOUSTIC, OPTICAL)]
        h0 = dispersion_matrix(p, 0.0, theta)
        for r in map(np.asarray, forms):
            u = np.outer(j * np.exp(1j * theta * j), r)
            lu = linear_apply(p, u.real) + 1j * linear_apply(p, u.imag)
            ramp = np.exp(-1j * theta * j)[:, None] * lu - np.outer(j, h0 @ r)
            err = np.abs(ramp[1:-1] - amp.slow_derivative_vector(p, r, theta)).max()
            worst = max(worst, err)
    assert worst <= 1e-12


def test_bracket_solvability_gives_the_group_velocity():
    """Projecting the wave-carrier bracket on the polarization moves the
    envelope at the group velocity: <r, D r> / (2i omega <r, r>) =
    omega'(theta) in the mass-weighted product, on both branches of random
    chains, at the band centre and edge as well."""
    rng = np.random.RandomState(24)
    worst = 0.0
    for _ in range(200):
        p = random_valid_params(rng)

        def dot(a, b):
            return p.M_w * np.conj(a[0]) * b[0] + p.m_w * np.conj(a[1]) * b[1]

        for branch in (ACOUSTIC, OPTICAL):
            for theta in (0.0, np.pi, *rng.uniform(-np.pi, np.pi, 5)):
                w = polarization(p, branch, theta)
                r = np.asarray(w.amplitude_vector(1 + 0j))
                v = dot(r, amp.slow_derivative_vector(p, r, theta)) / (2j * w.omega * dot(r, r))
                worst = max(worst, abs(v - group_velocity(p, branch, theta)))
    assert worst <= 1e-12
