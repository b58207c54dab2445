import numpy as np
import pytest

from dichain import microsim, model
from dichain.microsim import (SUBSTEPS, SimConfig, SimulationDiverged, integrate,
                              modal_mass, omega_max)
from dichain.model import LatticeState, force, hamiltonian_energy, linear_apply, nonlinear_apply
from dichain.spectrum import ACOUSTIC, polarization

P0 = model.p0()


def plane_wave_state(p, N, k, a, t=0.0):
    th = 2 * np.pi * k / N
    w = polarization(p, ACOUSTIC, th)
    j = np.arange(N)
    e = np.exp(1j * (w.omega * t + j * th))
    pos = 2 * a * np.real(np.stack([e, -w.rho * e], axis=1))
    vel = 2 * a * np.real(np.stack([1j * w.omega * e, -w.rho * 1j * w.omega * e], axis=1))
    return w, LatticeState(pos, vel, t)


def test_zero_state_is_fixed_point():
    s = integrate(P0, LatticeState.zeros(16), SimConfig(dt=0.02, T=5.0))
    assert np.all(s.pos == 0.0) and np.all(s.vel == 0.0)


def test_linear_plane_wave_second_order():
    N, k, a = 64, 5, 0.01
    errs = []
    for dt in (0.02, 0.01):
        w, s0 = plane_wave_state(P0, N, k, a)
        s = integrate(P0, s0, SimConfig(dt=dt, T=10.0))
        _, ref = plane_wave_state(P0, N, k, a, t=s.t)
        errs.append(np.abs(s.pos - ref.pos).max())
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4


def test_linear_plane_wave_fourth_order():
    N, k, a = 64, 5, 0.01
    errs = []
    for dt in (0.04, 0.02):
        w, s0 = plane_wave_state(P0, N, k, a)
        s = integrate(P0, s0, SimConfig(dt=dt, T=10.0, order=4))
        _, ref = plane_wave_state(P0, N, k, a, t=s.t)
        errs.append(np.abs(s.pos - ref.pos).max())
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_leapfrog_matches_reference_loop():
    # order 2 must stay the plain kick-drift-kick loop, bit for bit
    p = model.p0(v1=(1.0, 0.2, 0.1), w2=(1.0, 0.3, 0.0))
    rng = np.random.RandomState(5)
    s0 = LatticeState(0.05 * rng.randn(32, 2), 0.05 * rng.randn(32, 2))
    dt, n = 0.013, 200
    pos, vel = s0.pos.copy(), s0.vel.copy()
    acc = force(p, pos)
    for _ in range(n):
        vel += 0.5 * dt * acc
        pos += dt * vel
        acc = force(p, pos)
        vel += 0.5 * dt * acc
    s = integrate(p, s0, SimConfig(dt=dt, T=n * dt))
    assert np.array_equal(s.pos, pos) and np.array_equal(s.vel, vel)


def test_time_reversal():
    rng = np.random.RandomState(0)
    s0 = LatticeState(0.02 * rng.randn(64, 2), 0.02 * rng.randn(64, 2))
    sf = integrate(P0, s0, SimConfig(dt=0.02, T=50.0))
    sb = integrate(P0, LatticeState(sf.pos, -sf.vel), SimConfig(dt=0.02, T=50.0))
    assert np.abs(sb.pos - s0.pos).max() <= 1e-8
    assert np.abs(sb.vel + s0.vel).max() <= 1e-8


def test_energy_trend_conserved():
    # mass-consistent bond quadratics (mu V2' = V1') keep the weighted
    # energy exact for the flow; the symplectic scheme must show no
    # secular trend on top of its bounded dt^2 oscillation
    p = model.make_params(v1=(1.0, 0.15, 0.0), v2=(2.0, 0.30, 0.0),
                          w1=(1.0, 0.25, 0.1), w2=(1.0, 0.2, 0.0))
    rng = np.random.RandomState(1)
    s0 = LatticeState(0.05 * rng.randn(64, 2), 0.05 * rng.randn(64, 2))
    h0 = hamiltonian_energy(s0, p)
    vals = []

    def obs(t, st):
        vals.append(hamiltonian_energy(st, p))

    integrate(p, s0, SimConfig(dt=0.02, T=100.0, stride=10), obs)
    vals = np.array(vals)
    osc = np.abs(vals - h0).max() / abs(h0)
    assert osc < 1e-3  # bounded shadow-energy oscillation
    half = len(vals) // 2
    trend = abs(vals[half:].mean() - vals[:half].mean()) / abs(h0)
    assert trend < 1e-6


def test_time_reversal_fourth_order():
    rng = np.random.RandomState(0)
    s0 = LatticeState(0.02 * rng.randn(64, 2), 0.02 * rng.randn(64, 2))
    cfg = SimConfig(dt=0.02, T=50.0, order=4)
    sf = integrate(P0, s0, cfg)
    sb = integrate(P0, LatticeState(sf.pos, -sf.vel), cfg)
    assert np.abs(sb.pos - s0.pos).max() <= 1e-8
    assert np.abs(sb.vel + s0.vel).max() <= 1e-8


def test_energy_trend_conserved_fourth_order():
    # the mass-consistent setup of test_energy_trend_conserved; the
    # shadow-energy oscillation shrinks to O(dt^4)
    p = model.make_params(v1=(1.0, 0.15, 0.0), v2=(2.0, 0.30, 0.0),
                          w1=(1.0, 0.25, 0.1), w2=(1.0, 0.2, 0.0))
    rng = np.random.RandomState(1)
    s0 = LatticeState(0.05 * rng.randn(64, 2), 0.05 * rng.randn(64, 2))
    h0 = hamiltonian_energy(s0, p)
    vals = []

    def obs(t, st):
        vals.append(hamiltonian_energy(st, p))

    integrate(p, s0, SimConfig(dt=0.02, T=100.0, stride=10, order=4), obs)
    vals = np.array(vals)
    assert np.abs(vals - h0).max() / abs(h0) < 1e-5
    half = len(vals) // 2
    assert abs(vals[half:].mean() - vals[:half].mean()) / abs(h0) < 1e-8


def test_force_path_agreement():
    rng = np.random.RandomState(2)
    p = model.p0(v1=(1.0, 0.2, 0.1), w2=(1.0, 0.3, 0.0))
    pos = rng.randn(32, 2)
    assert np.array_equal(force(p, pos), linear_apply(p, pos) + nonlinear_apply(p, pos))


def test_no_spurious_mean_drift():
    # a standing cosine pattern has zero lattice mean; the integrator must
    # keep it at roundoff (no translation invariance to hide behind)
    N = 64
    j = np.arange(N)
    pos = np.stack([0.01 * np.cos(2 * np.pi * 3 * j / N),
                    0.01 * np.cos(2 * np.pi * 3 * j / N)], axis=1)
    s0 = LatticeState(pos, np.zeros((N, 2)))
    means = []

    def obs(t, st):
        means.append(np.abs(st.pos.mean(axis=0)).max())

    integrate(P0, s0, SimConfig(dt=0.02, T=50.0, stride=100), obs)
    assert max(means) < 1e-13


def test_dt_stability_guard():
    with pytest.raises(ValueError):
        SimConfig(dt=0.5, T=1.0).validate(P0)
    SimConfig(dt=0.2 / omega_max(P0), T=1.0).validate(P0)


def test_order_and_substep_stability_guard():
    with pytest.raises(ValueError, match="order"):
        SimConfig(dt=0.01, T=1.0, order=3).validate(P0)
    # order 4's largest substep is |w0| dt ~ 1.70 dt, and that is what is capped
    w_max = max(abs(w) for w in SUBSTEPS[4])
    assert 1.70 < w_max < 1.71
    with pytest.raises(ValueError, match="substep"):
        SimConfig(dt=0.2 / omega_max(P0), T=1.0, order=4).validate(P0)
    SimConfig(dt=0.2 / omega_max(P0) / w_max, T=1.0, order=4).validate(P0)


def test_fourth_order_force_calls(monkeypatch):
    calls = []

    def counted(p, pos):
        calls.append(1)
        return force(p, pos)

    monkeypatch.setattr(microsim, "force", counted)
    integrate(P0, LatticeState.zeros(8), SimConfig(dt=0.05, T=1.0, order=4))
    assert len(calls) == 1 + 3 * 20


def test_divergence_detection():
    # softening cubic on-site force blows up from large data
    p = model.make_params(v1=(1.0,), v2=(2.0,), w1=(1.0, 0.0, -40.0), w2=(1.0,),
                          validate=True)
    rng = np.random.RandomState(3)
    s0 = LatticeState(2.0 + rng.randn(16, 2), np.zeros((16, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDiverged):
            integrate(p, s0, SimConfig(dt=0.02, T=50.0, stride=10))


def test_modal_mass_examples():
    N = 128
    th0 = 2 * np.pi * 7 / N
    j = np.arange(N)
    s = LatticeState(np.stack([2 * np.cos(j * th0), np.zeros(N)], axis=1),
                     np.zeros((N, 2)))
    assert abs(modal_mass(s, th0, 1) - 1.0) < 1e-12
    assert modal_mass(s, 2 * np.pi * 9 / N, 1) < 1e-12
    assert modal_mass(LatticeState.zeros(N), th0, 1) == 0.0
    with pytest.raises(ValueError):
        modal_mass(s, 0.3, 1)  # incommensurate
    with pytest.raises(ValueError):
        modal_mass(s, th0, 3)


def modal_masses(s: LatticeState, component: int) -> np.ndarray:
    """All N commensurate modal amplitudes at once (FFT)."""
    return np.abs(np.fft.fft(s.pos[:, component - 1]) / s.N)


def test_modal_mass_parseval():
    rng = np.random.RandomState(4)
    N = 64
    s = LatticeState(rng.randn(N, 2), np.zeros((N, 2)))
    total = np.sum(modal_masses(s, 1) ** 2)
    direct = np.sum(np.abs(s.pos[:, 0]) ** 2) / N
    assert abs(total - direct) < 1e-12
    # spot-check the FFT against the direct projection
    th = 2 * np.pi * 11 / N
    assert abs(modal_masses(s, 1)[11] - modal_mass(s, th, 1)) < 1e-12


def test_observer_called_on_schedule():
    times = []
    integrate(P0, LatticeState.zeros(8), SimConfig(dt=0.05, T=1.0, stride=10),
              lambda t, s: times.append(t))
    np.testing.assert_allclose(times, [0.0, 0.5, 1.0], atol=1e-12)
