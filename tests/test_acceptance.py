"""Acceptance suite: every criterion at its stated tolerance and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
PASS report and timing per criterion.
"""
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from _helpers import (det_h, find_acoustic_optical_resonance, hamiltonian_energy, p0,
                      random_valid_params, strang_states)
from dichain import harness, model
from dichain.amplitude import ODEReferenceSolution, build_macro_system, sech_envelope
from dichain.ansatz import initial_state, sample_first_order
from dichain.microsim import SimConfig, integrate
from dichain.model import LatticeState
from dichain.resonance import (acoustic_acoustic_scan, family_params, optical_closure_margin,
                               solve_family_ratio, third_order_margin)
from dichain.spectrum import ACOUSTIC, OPTICAL, group_velocity, omega, polarization

P0 = p0()

P_NONRES = {
    "V1": {"k1": 1.0, "k2": 0.3, "k3": 0.1},
    "V2": {"k1": 2.0, "k2": 0.4, "k3": 0.0},
    "W1": {"k1": 1.0, "k2": 0.25, "k3": 0.05},
    "W2": {"k1": 1.0, "k2": 0.35, "k3": 0.0},
}
FAM = {"gamma": 2.0, "c": 1.0,
       "nl": {"v12": 0.3, "v22": 0.2, "w12": 0.4, "w22": 1.0}}
WAVES = [{"branch": "acoustic", "theta": 0.3}, {"branch": "optical", "theta": 0.6}]
EPS_SWEEP = [0.1, 0.0707, 0.05, 0.0354, 0.025]
BASE = dict(eps=EPS_SWEEP, tau0=1.0, L_y=40.0, n_grid=256, nu=0.5,
            a0=[1.0, 0.5])


def _report(n, name, t0, detail):
    print(f"ACCEPTANCE {n} ({name}): PASS ({time.time() - t0:.1f} s) -- {detail}")


def test_criterion_1_dispersion_identities():
    t0 = time.time()
    rng = np.random.RandomState(11)
    thetas = np.linspace(-np.pi, np.pi, 1000)
    worst_det, worst_gv = 0.0, 0.0
    for _ in range(20):
        p = random_valid_params(rng)
        for branch in (ACOUSTIC, OPTICAL):
            d = np.abs(det_h(p, omega(p, branch, thetas), thetas)).max()
            worst_det = max(worst_det, d)
        h = 1e-5
        for branch in (ACOUSTIC, OPTICAL):
            th = rng.uniform(-3.0, 3.0, 10)
            fd = (omega(p, branch, th + h) - omega(p, branch, th)) / h
            fd = (omega(p, branch, th + h) - omega(p, branch, th - h)) / (2 * h)
            worst_gv = max(worst_gv, np.abs(group_velocity(p, branch, th) - fd).max())
    assert worst_det <= 1e-10
    assert worst_gv <= 1e-8
    assert time.time() - t0 < 1.0
    _report(1, "dispersion identities", t0,
            f"max |det H|={worst_det:.2e}, max gv error={worst_gv:.2e}")


def test_criterion_2_resonance_existence():
    t0 = time.time()
    r = solve_family_ratio(2.0, 1.0)
    assert abs(r - 2.0) <= 1e-12
    p = family_params(2.0, 2.0)
    assert abs(2 * omega(p, ACOUSTIC, 0.0) - 2 * np.sqrt(2.0)) <= 1e-12
    assert abs(omega(p, OPTICAL, 0.0) - 2 * np.sqrt(2.0)) <= 1e-12

    roots = find_acoustic_optical_resonance(P0)
    assert len(roots) == 1
    theta_star = roots[0]
    defect = abs(2 * omega(P0, ACOUSTIC, theta_star) - omega(P0, OPTICAL, 2 * theta_star))
    assert defect <= 1e-12
    recomputed = brentq(lambda th: 2 * omega(P0, ACOUSTIC, th) - omega(P0, OPTICAL, 2 * th),
                        0.5, 2.0, xtol=1e-15)
    assert abs(theta_star - recomputed) <= 1e-10
    assert abs(theta_star - 1.1146) < 2e-3
    assert time.time() - t0 < 1.0
    _report(2, "resonance existence", t0,
            f"b/a={r}, theta*={theta_star:.6f}, defect={defect:.2e}")


def test_criterion_3_impossibility_scans():
    t0 = time.time()
    rng = np.random.RandomState(12)
    min_margin = np.inf
    for _ in range(50):
        p = random_valid_params(rng)
        mo = optical_closure_margin(p)
        m3 = third_order_margin(p)
        assert mo > 0.0 and m3 > 0.0
        min_margin = min(min_margin, mo, m3)
    worst_g = -np.inf
    for gamma in (1.1, 1.5, 2.0, 3.0, 5.0):
        _, mg = acoustic_acoustic_scan(gamma)
        worst_g = max(worst_g, mg)
        assert mg <= 1e-12
    assert time.time() - t0 < 5.0
    _report(3, "impossibility scans", t0,
            f"min margin={min_margin:.3f}, max g~={worst_g:.2e}")


def test_criterion_4_microsim():
    t0 = time.time()
    # (a) second-order convergence on the linear analytic solution
    N, k, a = 64, 5, 0.01
    th = 2 * np.pi * k / N
    w = polarization(P0, ACOUSTIC, th)
    j = np.arange(N)

    def plane(t):
        e = np.exp(1j * (w.omega * t + j * th))
        pos = 2 * a * np.real(np.stack([e, -w.rho * e], axis=1))
        vel = 2 * a * np.real(np.stack([1j * w.omega * e, -1j * w.omega * w.rho * e], axis=1))
        return LatticeState(pos, vel, t)

    errs = []
    for dt in (0.02, 0.01):
        s = integrate(P0, plane(0.0), SimConfig(dt=dt, T=10.0, order=2))
        errs.append(np.abs(s.pos - plane(s.t).pos).max())
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4

    # (b) no secular energy drift over T=500 at dt=0.02 (the symplectic
    # scheme keeps a bounded shadow-energy oscillation; the conserved
    # signal is the absence of any trend)
    p = model.make_params(v1=(1.0, 0.15, 0.0), v2=(2.0, 0.30, 0.0),
                          w1=(1.0, 0.25, 0.1), w2=(1.0, 0.2, 0.0))
    rng = np.random.RandomState(7)
    s0 = LatticeState(0.05 * rng.randn(N, 2), 0.05 * rng.randn(N, 2))
    h0 = hamiltonian_energy(s0, p)
    vals = []
    integrate(p, s0, SimConfig(dt=0.02, T=500.0, stride=25, order=2),
              lambda t, st: vals.append(hamiltonian_energy(st, p)))
    vals = np.array(vals)
    half = len(vals) // 2
    drift = abs(vals[half:].mean() - vals[:half].mean()) / abs(h0)
    assert drift <= 1e-6

    # (c) time-reversal recovery
    s0 = LatticeState(0.02 * rng.randn(N, 2), 0.02 * rng.randn(N, 2))
    sf = integrate(P0, s0, SimConfig(dt=0.02, T=50.0, order=2))
    sb = integrate(P0, LatticeState(sf.pos, -sf.vel), SimConfig(dt=0.02, T=50.0, order=2))
    rev = max(np.abs(sb.pos - s0.pos).max(), np.abs(sb.vel + s0.vel).max())
    assert rev <= 1e-8
    assert time.time() - t0 < 30.0
    _report(4, "microsim", t0,
            f"dt ratio={ratio:.3f}, energy drift={drift:.2e}, reversal={rev:.2e}")


# criteria 5 and 6 run the non-resonant chain and the resonant family in
# every regime the envelope layer distinguishes: at c = 1 (theta1 = 0) both
# group velocities and every V.k2 term of the resonant sources vanish, so
# only the other three can see a wrong one
SETUPS = {"nonres": dict(params=P_NONRES, waves=WAVES),
          "c1": dict(resonant_family=FAM),
          "generic": dict(resonant_family=dict(FAM, c=0.72)),
          "half-pi": dict(resonant_family=dict(FAM, c=0.5)),
          "pi": dict(resonant_family=dict(FAM, gamma=5.0, c=0.0))}


@pytest.mark.parametrize("label", SETUPS)
def test_criterion_5_lemma_scalings(label):
    t0 = time.time()
    extra = SETUPS[label]
    cfg = harness.config_from_dict(dict(kind="ansatz_scaling", **BASE, **extra))
    gap = harness.run_ansatz_scaling(cfg)
    assert abs(gap.exponent - 1.5) <= 0.1, (label, gap.exponent)
    assert gap.ratio <= 2.0, label
    cfg = harness.config_from_dict(dict(kind="residual_scaling", **BASE, **extra))
    res = harness.run_residual_scaling(cfg)
    assert res.exponent >= 2.4, (label, res.exponent)
    assert time.time() - t0 < 120.0
    _report(5, "lemma scalings", t0, f"{label}: gap={gap.exponent:.3f} "
            f"res={res.exponent:.3f} sup_ratio={gap.ratio:.2f}")


@pytest.mark.parametrize("label", SETUPS)
def test_criterion_6_theorem_reproduction(label):
    t0 = time.time()
    cfg = harness.config_from_dict(dict(kind="convergence", **BASE, **SETUPS[label]))
    rep = harness.run_convergence(cfg)
    assert rep.exponent >= 1.3, (label, rep.exponent)
    assert rep.fit_residual <= 0.1, (label, rep.fit_residual)
    assert time.time() - t0 < 900.0
    _report(6, "theorem reproduction", t0,
            f"{label}: exponent={rep.exponent:.3f} fit_residual={rep.fit_residual:.3f}")


def test_criterion_7_wave_generation():
    t0 = time.time()
    cfg = harness.config_from_dict(dict(kind="generation", resonant_family=FAM,
                                        eps=[0.05], tau0=1.0, L_y=40.0, n_grid=256,
                                        nu=0.5, a0=[1.0, 0.0]))
    rep = harness.run_generation(cfg)
    assert rep.discrepancy <= 0.20
    assert rep.initial_mass <= 1e-3 * rep.eps
    assert rep.final_mass >= 0.1 * rep.predicted_mass

    ctl_params = {"V1": {"k1": 1.0, "k2": 0.3}, "V2": {"k1": 2.0, "k2": 0.2},
                  "W1": {"k1": 1.0, "k2": 0.4}, "W2": {"k1": 1.0, "k2": 1.0}}
    cfg = harness.config_from_dict(dict(kind="generation", params=ctl_params,
                                        waves=[{"branch": "acoustic", "theta": 0.3}],
                                        eps=EPS_SWEEP, tau0=1.0, L_y=40.0,
                                        n_grid=256, nu=0.5, a0=[1.0, 0.0]))
    ctl = harness.run_generation_control(cfg)
    assert ctl.exponent >= 1.7
    assert ctl.ratio <= 2.0
    assert time.time() - t0 < 300.0
    _report(7, "wave generation", t0,
            f"discrepancy={rep.discrepancy:.3f}, initial={rep.initial_mass:.1e}, "
            f"final={rep.final_mass:.2e} vs predicted={rep.predicted_mass:.2e}; "
            f"control exponent={ctl.exponent:.2f}")


def test_criterion_8_amplitude_solver():
    t0 = time.time()
    L, n = 40.0, 128
    # non-resonant advection preserves L2 to 1e-10
    sys_nr = build_macro_system(P0, polarization(P0, ACOUSTIC, 0.7),
                                polarization(P0, OPTICAL, 1.3))
    f0 = (sech_envelope(L, n, 1.0, 0.5), sech_envelope(L, n, 0.5, 0.5))
    states = strang_states(sys_nr, f0, L, 5.0, 0.05)
    n0 = np.linalg.norm(states[0][0])
    l2_drift = max(abs(np.linalg.norm(f[0]) - n0) / n0 for f in states)
    assert l2_drift <= 1e-10

    # resonant self-convergence order >= 2 (advection active)
    rh = solve_family_ratio(2.0, 0.5)
    ph = model.make_params(v1=(1.0, 0.3), v2=(2.0, 0.2), w1=(rh, 0.4), w2=(rh, 1.0))
    sys_h = build_macro_system(ph, polarization(ph, ACOUSTIC, np.pi / 2),
                               polarization(ph, OPTICAL, np.pi))
    f0h = (sech_envelope(L, n, 1.0, 0.5), sech_envelope(L, n, 0.3, 0.5) * np.exp(0.4j))
    sols = {d: strang_states(sys_h, f0h, L, 1.0, d)[-1] for d in (0.04, 0.02, 0.01)}
    d1 = max(np.abs(sols[0.04][i] - sols[0.02][i]).max() for i in (0, 1))
    d2 = max(np.abs(sols[0.02][i] - sols[0.01][i]).max() for i in (0, 1))
    order = np.log2(d1 / d2)
    assert order >= 2.0 - 0.1

    # theta1=0 pointwise system agrees with the adaptive reference
    pg = model.make_params(v1=(1.0, 0.3), v2=(2.0, 0.2), w1=(2.0, 0.4), w2=(2.0, 1.0))
    sys_g = build_macro_system(pg, polarization(pg, ACOUSTIC, 0.0),
                               polarization(pg, OPTICAL, 0.0))
    ref = ODEReferenceSolution(sys_g, f0h, 1.0)
    got = strang_states(sys_g, f0h, L, 1.0, 0.002)[-1]
    want = ref.fields(1.0)
    ode_err = max(np.abs(got[i] - want[i]).max() for i in (0, 1))
    assert ode_err <= 1e-8
    _report(8, "amplitude solver", t0,
            f"L2 drift={l2_drift:.1e}, order={order:.3f}, ode err={ode_err:.1e}")
