import collections
import gc
import weakref

import numpy as np
import pytest

from dichain import amplitude as amp
from dichain import ansatz as anz
from dichain import harness, microsim, model
from dichain.ansatz import (AnsatzSpec, IncommensurateCarrier, first_order_velocity,
                            initial_state, residual_norm,
                            sample_first_order, sample_improved)
from dichain.resonance import wrap_theta
from dichain.spectrum import ACOUSTIC, OPTICAL, polarization

from _helpers import p0, per_call_corrector, per_row_snapshot

L, NG = 40.0, 128


def build_spec(p, eps_target, th1_t, th2_t, a0=(1.0, 0.5), nu=0.5, L_y=L, n=NG):
    N = int(round(L_y / eps_target))
    N -= N % 4
    eps = L_y / N
    th1 = 2 * np.pi * round(th1_t * N / (2 * np.pi)) / N
    th2 = 2 * np.pi * round(th2_t * N / (2 * np.pi)) / N
    w1 = polarization(p, ACOUSTIC, th1)
    w2 = polarization(p, OPTICAL, th2)
    macro = amp.build_macro_system(p, w1, w2)
    f0 = (amp.sech_envelope(L_y, n, a0[0], nu), amp.sech_envelope(L_y, n, a0[1], nu))
    sol = amp.make_solution(macro, f0, L_y)
    return AnsatzSpec(p, eps, N, n, macro, sol)


def constant_spec(p, eps, N, th1, a=1.0, n=NG):
    w1 = polarization(p, ACOUSTIC, th1)
    w2 = polarization(p, OPTICAL, 2 * np.pi * (N // 3) / N)
    macro = amp.build_macro_system(p, w1, w2)
    f0 = (np.full(n, a, dtype=complex), np.zeros(n, complex))
    sol = amp.make_solution(macro, f0, eps * N)
    return AnsatzSpec(p, eps, N, n, macro, sol)


def dense_interp(spec, values):
    """Reference interpolant: the N x n matrix exp(i y_j kappa_k) / n,
    y_j = eps*j, applied to the grid's FFT coefficients."""
    y = spec.eps * np.arange(spec.N)
    kappa = amp.wavenumbers(spec.L, spec.n)
    return np.exp(1j * np.outer(y, kappa)) / spec.n @ np.fft.fft(values)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# N > n (zero pad), N < n (modes fold onto one lattice wavenumber), n = 16
@pytest.mark.parametrize("N,n", [(400, 256), (1600, 256), (200, 256),
                                 (400, 512), (1600, 512), (404, 16)])
def test_interp_matches_dense_matrix(N, n):
    spec = constant_spec(p0(), L / N, N, 0.0, n=n)
    rng = np.random.default_rng(N + n)
    smooth = amp.sech_envelope(L, n, 1.0, 0.5) * np.exp(0.3j * amp.grid_points(L, n))
    rough = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    nyquist = (-1.0) ** np.arange(n) + 0j    # only the m = -n/2 coefficient
    for values in (smooth, rough, nyquist):
        assert rel_err(spec.interp(values), dense_interp(spec, values)) <= 1e-12


@pytest.mark.parametrize("N,n", [(256, 256), (512, 256), (1600, 16), (400, 16)])
def test_interp_recovers_grid_values(N, n):
    spec = constant_spec(p0(), L / N, N, 0.0, n=n)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = spec.interp(values)[::N // n]
    assert rel_err(got, values) <= 1e-12


def test_spec_freed_without_cycle_collector():
    """Cached snapshots must not keep a dropped spec (and the N-length
    fields they hold) alive until the cycle collector runs."""
    spec = constant_spec(p0(), 0.1, 400, 0.0, a=0.5)
    sample_improved(spec, 0.7)  # fills the cache and the lazy correctors
    ref = weakref.ref(spec)
    gc.disable()
    try:
        del spec
        assert ref() is None
    finally:
        gc.enable()


def test_zero_amplitudes_sample_zero():
    p = p0()
    N = 400
    spec = constant_spec(p, 0.1, N, 0.0, a=0.0)
    assert np.all(sample_first_order(spec, 1.3) == 0.0)
    assert np.all(sample_improved(spec, 1.3) == 0.0)
    assert np.all(anz.improved_velocity(spec, 0.0) == 0.0)


def test_constant_amplitude_uniform_wave():
    # acoustic theta=0 on the reference chain: rho=-1, so both components
    # move together: u_j = (2 eps a cos t, 2 eps a cos t)
    p = p0()
    N = 400
    eps = 0.1
    spec = constant_spec(p, eps, N, 0.0, a=0.5)
    for t in (0.0, 0.7, 2.0):
        u = sample_first_order(spec, t)
        expected = 2 * eps * 0.5 * np.cos(1.0 * t)
        np.testing.assert_allclose(u[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(u[:, 1], expected, atol=1e-12)


def test_sampled_fields_are_real():
    p = p0(w1=(1.0, 0.3, 0.0), w2=(1.0, 0.4, 0.0))
    spec = build_spec(p, 0.1, 0.3, 0.6)
    u = sample_improved(spec, 0.37)
    v = anz.improved_velocity(spec, 0.37)
    assert u.dtype == np.float64 and v.dtype == np.float64
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))


def test_incommensurate_carrier_rejected():
    p = p0()
    w1 = polarization(p, ACOUSTIC, 0.3)  # not a multiple of 2 pi / N
    w2 = polarization(p, OPTICAL, 2 * np.pi * 10 / 64)
    macro = amp.build_macro_system(p, w1, w2)
    f0 = (np.zeros(NG, complex), np.zeros(NG, complex))
    sol = amp.make_solution(macro, f0, 6.4)
    with pytest.raises(IncommensurateCarrier):
        AnsatzSpec(p, 0.1, 64, NG, macro, sol)


def test_improved_equals_first_order_when_correctors_vanish():
    # linear chain + constant envelope: every corrector is zero
    p = p0()
    spec = constant_spec(p, 0.1, 400, 2 * np.pi * 19 / 400, a=0.7)
    np.testing.assert_array_equal(sample_first_order(spec, 0.9),
                                  sample_improved(spec, 0.9))


def test_initial_velocity_matches_analytic_derivative():
    p = p0()
    N = 400
    eps = 0.1
    spec = constant_spec(p, eps, N, 0.0, a=0.4)   # theta=0: rho=-1, real
    w = spec.macro.waves[0]
    j = np.arange(N)
    v = first_order_velocity(spec, 0.0)
    # real a, real rho: udot = -2 eps a omega sin(omega t + j theta) (1, -rho)
    expected = -2 * eps * 0.4 * w.omega * np.sin(0.0 * j)
    np.testing.assert_allclose(v[:, 0], expected, atol=1e-12)
    np.testing.assert_allclose(v[:, 1], expected, atol=1e-12)
    # generic theta: compare against the complex plane-wave derivative
    th = 2 * np.pi * 19 / N
    spec = constant_spec(p, eps, N, th, a=0.4)
    w = spec.macro.waves[0]
    v = first_order_velocity(spec, 0.3)
    e = np.exp(1j * (w.omega * 0.3 + j * th))
    np.testing.assert_allclose(v[:, 0], 2 * eps * 0.4 * np.real(1j * w.omega * e), atol=1e-12)
    np.testing.assert_allclose(v[:, 1], 2 * eps * 0.4 * np.real(-w.rho * 1j * w.omega * e),
                               atol=1e-12)


def test_plane_wave_initial_data_reproduced_by_microsim():
    p = p0()
    N = 256
    eps = 0.05
    th = 2 * np.pi * 12 / N
    spec = constant_spec(p, eps, N, th, a=0.5)
    s0 = initial_state(spec, improved=True)
    s = microsim.integrate(p, s0, microsim.SimConfig(dt=0.001, T=10.0, order=2))
    expected = sample_first_order(spec, s.t)
    assert np.abs(s.pos - expected).max() < 5e-6  # integrator accuracy


def test_residual_linear_plane_wave_floor():
    # small amplitude and a balanced step keep both the cancellation noise
    # and the truncation error of the second difference below 1e-8
    p = p0()
    spec = constant_spec(p, 0.1, 400, 2 * np.pi * 19 / 400, a=0.01)
    assert residual_norm(p, spec, 1.0, h0=0.03) <= 1e-8


def test_residual_scaling_and_h_insensitivity():
    p = p0(v1=(1.0, 0.3, 0.1), v2=(2.0, 0.4, 0.0),
                 w1=(1.0, 0.25, 0.05), w2=(1.0, 0.35, 0.0))
    vals, es = [], []
    for eps_t in (0.1, 0.05, 0.025):
        spec = build_spec(p, eps_t, 0.3, 0.6)
        h0 = max(0.01, 5e-5 / spec.eps ** 2)
        vals.append(residual_norm(p, spec, 0.5 / spec.eps, h0=h0))
        es.append(spec.eps)
    slope = np.polyfit(np.log(es), np.log(vals), 1)[0]
    assert slope >= 2.4
    # doubling the step changes the measurement marginally in the regime
    spec = build_spec(p, 0.1, 0.3, 0.6)
    r1 = residual_norm(p, spec, 0.5 / spec.eps, h0=0.01)
    r2 = residual_norm(p, spec, 0.5 / spec.eps, h0=0.02)
    assert abs(r2 - r1) / r1 < 0.05


def test_gap_scaling_exponent():
    p = p0(v1=(1.0, 0.3, 0.1), v2=(2.0, 0.4, 0.0),
                 w1=(1.0, 0.25, 0.05), w2=(1.0, 0.35, 0.0))
    gaps, infs, es = [], [], []
    for eps_t in (0.1, 0.05, 0.025):
        spec = build_spec(p, eps_t, 0.3, 0.6)
        t = 0.5 / spec.eps
        dpos = sample_improved(spec, t) - sample_first_order(spec, t)
        dvel = anz.improved_velocity(spec, t) - first_order_velocity(spec, t)
        gaps.append(model.energy_norm(model.LatticeState(dpos, dvel, t), p))
        infs.append(np.abs(sample_improved(spec, t)).max() / spec.eps)
        es.append(spec.eps)
    slope = np.polyfit(np.log(es), np.log(gaps), 1)[0]
    assert abs(slope - 1.5) <= 0.1
    assert max(infs) / min(infs) <= 2.0


def test_residual_requires_available_trajectory():
    p = p0()
    spec = constant_spec(p, 0.1, 400, 0.0, a=0.5)
    with pytest.raises(ValueError):
        residual_norm(p, spec, -5.0, h0=0.01)


NL = {"v12": 0.3, "v22": 0.2, "w12": 0.4, "w22": 1.0}


# exact transport, Strang (theta1 = pi/2) and Strang at rest (c = 1) envelopes
SOURCES = [
    {"params": {"V1": {"k1": 1.0, "k2": 0.3, "k3": 0.1}, "V2": {"k1": 2.0, "k2": 0.4},
                "W1": {"k1": 1.0, "k2": 0.25, "k3": 0.05}, "W2": {"k1": 1.0, "k2": 0.35}},
     "waves": [{"branch": "acoustic", "theta": 0.3}, {"branch": "optical", "theta": 0.6}]},
    {"resonant_family": {"gamma": 2.0, "c": 0.5, "nl": NL}},
    {"resonant_family": {"gamma": 2.0, "c": 1.0, "nl": NL}},
]
SOURCE_IDS = ["transport", "strang", "strang-at-rest"]


def _setup(source, eps=0.05, n_grid=256):
    cfg = harness.config_from_dict(dict(kind="residual_scaling", eps=[eps], tau0=1.0,
                                        L_y=40.0, n_grid=n_grid, nu=0.5, a0=[1.0, 0.5],
                                        **source))
    return harness.setup_run(cfg, eps)


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_residual_at_start_of_trajectory(source):
    # the neighbours of t are envelope steps from the state at t, so every
    # provider gives the residual at t = 0, next to its value just after
    setup = _setup(source)
    r0 = residual_norm(setup.p, setup.spec, 0.0, h0=0.02)
    r1 = residual_norm(setup.p, setup.spec, 1e-5, h0=0.02)
    assert np.isfinite(r0) and r0 > 0
    assert abs(r0 - r1) <= 1e-3 * r1


def test_theta_snapping_keeps_resonance_exact():
    """Snapping theta to the lattice re-solves the family ratio so the
    resonance stays exact at the snapped wavenumber."""
    cfg = harness.config_from_dict({
        "kind": "residual_scaling",
        "resonant_family": {"gamma": 2.0, "c": 0.9,
                            "nl": {"w22": 1.0, "w12": 0.4, "v12": 0.3, "v22": 0.2}},
        "eps": [0.1], "tau0": 0.5, "L_y": 40.0, "n_grid": 64})
    setup = harness.setup_run(cfg, 0.1)
    w1, w2 = setup.spec.macro.waves
    from dichain.spectrum import omega
    defect = abs(2 * omega(setup.p, ACOUSTIC, w1.theta)
                 - omega(setup.p, OPTICAL, 2 * w1.theta))
    assert defect <= 1e-12
    k = w1.theta * setup.spec.N / (2 * np.pi)
    assert abs(k - round(k)) < 1e-9


# N = 800 lattice sites over n = 256 grid points (a zero pad), and N = 400
# over n = 1024, where up to three grid modes fold onto one lattice
# wavenumber, so the order of the fold's sums shows in the bits
@pytest.mark.parametrize("eps,n_grid", [(0.05, 256), (0.1, 1024)], ids=["N-above-n", "N-below-n"])
@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_snapshot_matches_per_row_reference(source, eps, n_grid):
    """The stacked FFT passes give every row bit for bit."""
    spec = _setup(source, eps, n_grid).spec
    assert (spec.N > spec.n) == (n_grid == 256)
    fields = spec.solution.fields(0.3)
    snap = anz._Snapshot(spec, fields)
    a2 = anz._correctors(spec, snap)
    ref = per_row_snapshot(spec, fields)
    for name in ("b_lat", "dtau_lat", "dy_grid", "dtau_grid"):
        assert np.array_equal(getattr(snap, name), ref[name]), name
    assert a2.keys() == ref["a2_lat"].keys()
    for iota, rows in a2.items():
        assert np.array_equal(rows, ref["a2_lat"][iota]), iota


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_snapshot_makes_four_ffts_and_correctors_two(monkeypatch, source):
    spec = _setup(source).spec
    fields = spec.solution.fields(0.3)
    calls = collections.Counter()
    for name in ("fft", "ifft"):
        def counted(*a, _fn=getattr(np.fft, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    snap = anz._Snapshot(spec, fields)
    assert calls == {"fft": 2, "ifft": 2}
    calls.clear()
    anz._correctors(spec, snap)
    assert calls == {"fft": 1, "ifft": 1}
    calls.clear()
    anz._correctors(spec, snap)  # built once
    assert not calls


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_improved_is_first_order_plus_corrector_sum(source):
    """The ansatz-gap sweep builds the improved approximation this way."""
    spec = _setup(source).spec
    t = 0.3 / spec.eps
    assert np.array_equal(sample_improved(spec, t),
                          sample_first_order(spec, t) + anz.corrector_sum(spec, t))
    assert np.array_equal(anz.improved_velocity(spec, t),
                          first_order_velocity(spec, t) + anz.corrector_sum(spec, t, True))
    assert np.any(anz.corrector_sum(spec, t) != 0.0)


# ---------------------------------------------------------------------------
# phase rows per time and corrector matrices per carrier, against the
# per-term and per-call arithmetic they replace

REGIMES = [*SOURCES, {"resonant_family": {"gamma": 5.0, "c": 0.0, "nl": NL}}]
REGIME_IDS = ["nonresonant", "half-pi", "c1", "pi"]


def _per_term_carrier_sum(spec, terms, t, scale):
    """The carrier sum with its own exp(i(omega*t + theta*j)) per term."""
    j = np.arange(spec.N)
    u = np.zeros((spec.N, 2), dtype=complex)
    for omega, theta, a in terms:
        e = np.exp(1j * (omega * t + j * theta))
        u[:, 0] += a[0] * e
        u[:, 1] += a[1] * e
    return 2.0 * scale * u.real


def _reference_sums(spec, fields, t):
    """Leading positions and velocities, and the corrector position and
    velocity terms, at lattice time t from the envelope grids ``fields``,
    with fresh phases and per-call solves throughout."""
    snap = anz._Snapshot(spec, fields)
    waves = spec.macro.waves
    a1, a2 = (w.amplitude_vector(b) for w, b in zip(waves, snap.b_grid))
    # the wave-carrier rows solve no matrix; the product rows are replaced
    cor = amp.second_order_amplitudes(spec.p, spec.macro, snap.b_grid, snap.dy_grid,
                                      snap.dtau_grid)
    for iota, om_v, th_v, weight in amp.corrector_carriers(spec.macro.mode, *waves):
        K = amp.compute_K(iota, a1, a2, spec.p, waves[0].theta, waves[1].theta)
        cor[iota] = per_call_corrector(spec.p, om_v, th_v, K, weight)
    cor_lat = dict(zip(cor, spec.interp(np.stack(list(cor.values())))))

    def first(envelopes):
        return _per_term_carrier_sum(spec, [(w.omega, w.theta, w.amplitude_vector(b))
                                            for w, b in zip(waves, envelopes)], t, spec.eps)

    def second(time_derivative):
        terms = []
        for iota, om_v, th_v, weight in amp.ansatz_carriers(spec.macro.mode, *waves):
            c = weight * (1j * om_v if time_derivative else 1.0)
            if c != 0.0:
                terms.append((om_v, th_v, c * cor_lat[iota]))
        return _per_term_carrier_sum(spec, terms, t, spec.eps ** 2)

    vel = [1j * w.omega * b + spec.eps * d for w, b, d in zip(waves, snap.b_lat, snap.dtau_lat)]
    return first(snap.b_lat), first(vel), second(False), second(True)


def _reference_residual(spec, t, h0):
    h = spec.eps ** 2 * h0
    base = spec.solution.fields(spec.eps * t)
    u = []
    for dt in (-h, 0.0, h):
        fields = amp.strang_step(spec.macro, base, spec.L, spec.eps * dt) if dt else base
        pos, _, cor, _ = _reference_sums(spec, fields, t + dt)
        u.append(pos + cor)
    um, u0, up = u
    udd = (up - 2.0 * u0 + um) / (h * h)
    return model.norm_m(model.force(spec.p, u0) - udd, spec.p)


@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_shared_phases_and_matrices_match_per_call_arithmetic(source):
    """Every sampler gives the bits of fresh phase rows and per-call solves.
    Times are revisited out of order and two specs of different N (the
    same carriers in the pi regime) interleave, so a stale row shows."""
    specs = [_setup(source, eps, 128).spec for eps in (0.1, 0.05)]
    assert specs[0].N != specs[1].N
    for tau in (0.3, 0.1, 0.3, 0.0, 0.2, 0.1):
        for spec in specs:
            t = tau / spec.eps
            pos, vel, cor, cor_vel = _reference_sums(spec, spec.solution.fields(spec.eps * t), t)
            assert np.array_equal(anz.corrector_sum(spec, t, True), cor_vel)
            assert np.array_equal(sample_first_order(spec, t), pos)
            assert np.array_equal(anz.corrector_sum(spec, t), cor)
            assert np.array_equal(first_order_velocity(spec, t), vel)
            assert np.array_equal(sample_improved(spec, t), pos + cor)
    for spec in specs:
        pos, vel, cor, cor_vel = _reference_sums(spec, spec.solution.fields(0.0), 0.0)
        for improved, ref in ((True, (pos + cor, vel + cor_vel)), (False, (pos, vel))):
            s0 = initial_state(spec, improved)
            assert np.array_equal(s0.pos, ref[0]) and np.array_equal(s0.vel, ref[1])
    for t in (0.25, 0.15):
        for spec in specs:
            t_lat = t / spec.eps
            assert residual_norm(spec.p, spec, t_lat, h0=0.02) == \
                _reference_residual(spec, t_lat, 0.02)


@pytest.mark.parametrize("source,rows", zip(REGIMES, (7, 5, 5, 5)), ids=REGIME_IDS)
def test_phase_rows_once_per_carrier_and_time(monkeypatch, source, rows):
    """The leading and corrector sums of one time share one exp row per
    carrier: 7 rows for 17 terms non-resonant, 5 for 13 resonant."""
    spec = _setup(source, 0.1, 128).spec
    built = collections.Counter()

    def counted(x, *a, _exp=np.exp, **kw):
        built[np.ndim(x)] += 1
        return _exp(x, *a, **kw)

    for tau in (0.3, 0.4):
        t = tau / spec.eps
        anz._correctors(spec, spec.at_tau(spec.eps * t))  # the snapshot's FFTs use no exp
        monkeypatch.setattr(np, "exp", counted)
        sample_first_order(spec, t)
        first_order_velocity(spec, t)
        anz.corrector_sum(spec, t)
        anz.corrector_sum(spec, t, True)
        monkeypatch.undo()
        assert built[1] == rows == len(spec._phases)
        built.clear()
