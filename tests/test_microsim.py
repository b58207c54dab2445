import numpy as np
import pytest

from _helpers import (hamiltonian_energy, linear_apply, nonlinear_apply, p0, random_valid_params,
                      roll_force)
from dichain import microsim, model
from dichain.microsim import (SCHEMES, SimConfig, SimulationDiverged, default_dt, integrate,
                              largest_drift, modal_mass, omega_max)
from dichain.model import LatticeState, cell_pack, cell_unpack, force
from dichain.spectrum import ACOUSTIC, polarization

P0 = p0()


def plane_wave_state(p, N, k, a, t=0.0):
    th = 2 * np.pi * k / N
    w = polarization(p, ACOUSTIC, th)
    j = np.arange(N)
    e = np.exp(1j * (w.omega * t + j * th))
    pos = 2 * a * np.real(np.stack([e, -w.rho * e], axis=1))
    vel = 2 * a * np.real(np.stack([1j * w.omega * e, -w.rho * 1j * w.omega * e], axis=1))
    return w, LatticeState(pos, vel, t)


def test_zero_state_is_fixed_point():
    s = integrate(P0, LatticeState.zeros(16), SimConfig(dt=0.02, T=5.0, order=2))
    assert np.all(s.pos == 0.0) and np.all(s.vel == 0.0)


def test_linear_plane_wave_second_order():
    N, k, a = 64, 5, 0.01
    errs = []
    for dt in (0.02, 0.01):
        w, s0 = plane_wave_state(P0, N, k, a)
        s = integrate(P0, s0, SimConfig(dt=dt, T=10.0, order=2))
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
    p = p0(v1=(1.0, 0.2, 0.1), w2=(1.0, 0.3, 0.0))
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
    s = integrate(p, s0, SimConfig(dt=dt, T=n * dt, order=2))
    assert np.array_equal(s.pos, pos) and np.array_equal(s.vel, vel)


def _srkn_loop(accel, pos, vel, dt, n):
    """n order-4 steps of (pos, vel) in place, the loop of integrate with
    acceleration accel(pos); yields after each step.  A step is Blanes and
    Moan's SRKN_6^b: kicks b1 b2 b3 b4 b3 b2 b1 around drifts
    a1 a2 a3 a3 a2 a1, one force call after each drift."""
    a1, a2 = 0.245298957184271, 0.604872665711080
    b1, b2, b3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
    a3, b4 = 0.5 - a1 - a2, 1.0 - 2.0 * (b1 + b2 + b3)
    kicks = [b * dt for b in (b1, b2, b3, b4, b3, b2, b1)]
    drifts = [a * dt for a in (a1, a2, a3, a3, a2, a1)]
    acc = accel(pos)
    kick = np.empty_like(vel)
    for _ in range(n):
        vel += np.multiply(kicks[0], acc, out=kick)
        for i in range(6):
            pos += np.multiply(drifts[i], vel, out=kick)
            acc = accel(pos)
            vel += np.multiply(kicks[i + 1], acc, out=kick)
        yield


def test_scheme_tables_symmetric_and_consistent():
    # a palindromic splitting is time symmetric; kick and drift weights
    # that each sum to 1 make it consistent (order >= 1)
    for order, (kicks, drifts) in SCHEMES.items():
        assert len(kicks) == len(drifts) + 1, order
        assert kicks == kicks[::-1] and drifts == drifts[::-1], order
        assert abs(sum(kicks) - 1.0) <= 1e-15 and abs(sum(drifts) - 1.0) <= 1e-15, order
    assert SCHEMES[2] == ((0.5, 0.5), (1.0,))


def test_fourth_order_error_ratio_on_nonlinear_oscillator():
    # four cells with quadratic and cubic bonds and on-site forces at
    # amplitude 0.3: the error against a dt = 0.005 run falls ~16x per
    # halving of dt
    p = model.make_params(v1=(1.0, 0.3, 0.2), v2=(2.0, 0.2, 0.1),
                          w1=(1.0, 0.4, 0.3), w2=(1.0, 0.5, 0.2))
    rng = np.random.RandomState(8)
    s0 = LatticeState(0.3 * rng.randn(4, 2), 0.3 * rng.randn(4, 2))
    ref = integrate(p, s0, SimConfig(dt=0.005, T=20.0, order=4))
    errs = [np.abs(integrate(p, s0, SimConfig(dt=dt, T=20.0, order=4)).pos - ref.pos).max()
            for dt in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_fourth_order_long_run_at_default_step():
    # the experiments' step dt = 0.1 over T = 500 (5,000 steps): reversible
    # to round-off, and the energy of the mass-consistent setup of
    # test_energy_trend_conserved oscillates but shows no trend
    p = model.make_params(v1=(1.0, 0.15, 0.0), v2=(2.0, 0.30, 0.0),
                          w1=(1.0, 0.25, 0.1), w2=(1.0, 0.2, 0.0))
    rng = np.random.RandomState(8)
    s0 = LatticeState(0.05 * rng.randn(64, 2), 0.05 * rng.randn(64, 2))
    h0 = hamiltonian_energy(s0, p)
    vals = []
    cfg = SimConfig(dt=0.1, T=500.0, stride=10, order=4)
    sf = integrate(p, s0, cfg, lambda t, st: vals.append(hamiltonian_energy(st, p)))
    vals = np.array(vals)
    assert np.abs(vals - h0).max() / abs(h0) < 1e-7
    half = len(vals) // 2
    assert abs(vals[half:].mean() - vals[:half].mean()) / abs(h0) < 1e-9
    sb = integrate(p, LatticeState(sf.pos, -sf.vel), SimConfig(dt=0.1, T=500.0, order=4))
    assert np.abs(sb.pos - s0.pos).max() <= 1e-12
    assert np.abs(sb.vel + s0.vel).max() <= 1e-12


def test_fourth_order_matches_cell_layout_loop():
    # the loop on (N, 2) cells that integrate ran before it kept atom-order
    # arrays; a wrong wrap bond or swapped even/odd coefficients break it
    prng, rng = np.random.RandomState(13), np.random.RandomState(14)
    for N in (1, 5, 32):
        p = random_valid_params(prng, nonlinear=True)
        dt, n = default_dt(p, 4), 50
        s0 = LatticeState(0.1 * rng.randn(N, 2), 0.1 * rng.randn(N, 2))
        pos, vel = s0.pos.copy(), s0.vel.copy()
        for _ in _srkn_loop(lambda u: roll_force(p, u), pos, vel, dt, n):
            pass
        s = integrate(p, s0, SimConfig(dt=dt, T=n * dt, order=4))
        assert np.array_equal(s.pos, pos) and np.array_equal(s.vel, vel)


def test_observer_sees_cells_of_flat_state():
    p = random_valid_params(np.random.RandomState(15), nonlinear=True)
    rng = np.random.RandomState(16)
    s0 = LatticeState(0.1 * rng.randn(16, 2), 0.1 * rng.randn(16, 2))
    dt, n, stride = default_dt(p, 4), 30, 7
    x, v = cell_unpack(s0.pos).copy(), cell_unpack(s0.vel).copy()
    expected = [(x.copy(), v.copy())]

    def accel(x):
        return cell_unpack(roll_force(p, cell_pack(x)))

    for k, _ in enumerate(_srkn_loop(accel, x, v, dt, n), 1):
        if k % stride == 0 or k == n:
            expected.append((x.copy(), v.copy()))
    seen = []
    integrate(p, s0, SimConfig(dt=dt, T=n * dt, stride=stride, order=4),
              lambda t, st: seen.append((st.pos.copy(), st.vel.copy())))
    assert len(seen) == len(expected) == 6
    for (pos, vel), (x, v) in zip(seen, expected):
        assert np.array_equal(pos, cell_pack(x)) and np.array_equal(vel, cell_pack(v))


def test_time_reversal():
    rng = np.random.RandomState(0)
    s0 = LatticeState(0.02 * rng.randn(64, 2), 0.02 * rng.randn(64, 2))
    sf = integrate(P0, s0, SimConfig(dt=0.02, T=50.0, order=2))
    sb = integrate(P0, LatticeState(sf.pos, -sf.vel), SimConfig(dt=0.02, T=50.0, order=2))
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

    integrate(p, s0, SimConfig(dt=0.02, T=100.0, stride=10, order=2), obs)
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


def test_time_reversal_fourth_order_random_chains():
    # leapfrog maps of one linear chain commute, so only the nonlinear
    # forces of data this large show a composition that is not symmetric
    # (e.g. substep weights w1 +- 1e-3 miss by about 1e-9)
    prng, rng = np.random.RandomState(11), np.random.RandomState(12)
    for _ in range(10):
        p = random_valid_params(prng, nonlinear=True)
        dt = default_dt(p, 4)
        cfg = SimConfig(dt=dt, T=200 * dt, order=4)
        s0 = LatticeState(0.1 * rng.randn(32, 2), 0.1 * rng.randn(32, 2))
        sf = integrate(p, s0, cfg)
        sb = integrate(p, LatticeState(sf.pos, -sf.vel), cfg)
        assert np.abs(sb.pos - s0.pos).max() <= 1e-12
        assert np.abs(sb.vel + s0.vel).max() <= 1e-12


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
    p = p0(v1=(1.0, 0.2, 0.1), w2=(1.0, 0.3, 0.0))
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

    integrate(P0, s0, SimConfig(dt=0.02, T=50.0, stride=100, order=2), obs)
    assert max(means) < 1e-13


def test_dt_stability_guard():
    with pytest.raises(ValueError):
        SimConfig(dt=0.5, T=1.0, order=2).validate(P0)
    SimConfig(dt=0.2 / omega_max(P0), T=1.0, order=2).validate(P0)


def test_order_and_substep_stability_guard():
    with pytest.raises(ValueError, match="order"):
        SimConfig(dt=0.01, T=1.0, order=3).validate(P0)
    # order 4's longest drift is a2 dt ~ 0.605 dt, and that is what is capped
    a_max = largest_drift(4)
    assert a_max == 0.604872665711080
    with pytest.raises(ValueError, match="drift"):
        SimConfig(dt=0.2 / omega_max(P0) / a_max * 1.001, T=1.0, order=4).validate(P0)
    SimConfig(dt=0.2 / omega_max(P0) / a_max, T=1.0, order=4).validate(P0)
    assert default_dt(P0, 4) == 0.2 / omega_max(P0) / a_max
    assert default_dt(P0, 2) == 0.2 / omega_max(P0)
    assert SimConfig(dt=0.1, T=1.0).order == 4  # leapfrog is asked for by name


def test_fourth_order_force_calls(monkeypatch):
    calls = []

    def counted(p, pos, out=None):
        calls.append(1)
        return force(p, pos, out=out)

    monkeypatch.setattr(microsim, "force", counted)
    integrate(P0, LatticeState.zeros(8), SimConfig(dt=0.05, T=1.0, order=4))
    assert len(calls) == 1 + 6 * 20


def test_integrate_writes_each_force_into_one_buffer(monkeypatch):
    """Every force call gets the same (N, 2) view as ``out``, over the
    flat atom-order acceleration buffer, and the run matches one whose
    force returns fresh arrays, bit for bit."""
    outs = []

    def recorded(p, pos, out=None):
        outs.append(out)
        return force(p, pos, out=out)

    def fresh(p, pos, out=None):
        np.copyto(out, force(p, pos))
        return out

    p = model.make_params(v1=(1.0, 0.3, 0.2), v2=(2.0, 0.2, 0.1),
                          w1=(1.0, 0.4, 0.1), w2=(1.0, 1.0, 0.0))
    rng = np.random.RandomState(4)
    s0 = LatticeState(0.1 * rng.randn(12, 2), 0.1 * rng.randn(12, 2))
    cfg = SimConfig(dt=0.05, T=1.0, order=4)
    monkeypatch.setattr(microsim, "force", recorded)
    got = integrate(p, s0, cfg)
    assert all(o is outs[0] for o in outs) and outs[0].shape == (12, 2)
    assert outs[0].base is not None and outs[0].base.shape == (24,)
    monkeypatch.setattr(microsim, "force", fresh)
    want = integrate(p, s0, cfg)
    assert np.array_equal(got.pos, want.pos) and np.array_equal(got.vel, want.vel)


def test_divergence_detection():
    # softening cubic on-site force blows up from large data
    p = model.make_params(v1=(1.0,), v2=(2.0,), w1=(1.0, 0.0, -40.0), w2=(1.0,))
    rng = np.random.RandomState(3)
    s0 = LatticeState(2.0 + rng.randn(16, 2), np.zeros((16, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDiverged):
            integrate(p, s0, SimConfig(dt=0.02, T=50.0, stride=10, order=2))


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
    integrate(P0, LatticeState.zeros(8), SimConfig(dt=0.05, T=1.0, stride=10, order=2),
              lambda t, s: times.append(t))
    np.testing.assert_allclose(times, [0.0, 0.5, 1.0], atol=1e-12)
