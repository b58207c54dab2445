import collections
import gc
import weakref

import numpy as np
import pytest

from dichain import amplitude as amp
from dichain import ansatz as anz
from dichain import harness, microsim, model
from dichain.ansatz import (AnsatzSpec, IncommensurateCarrier, corrector_sum,
                            first_order_velocity, initial_state, residual_norm,
                            sample_first_order)
from dichain.resonance import wrap_theta
from dichain.spectrum import ACOUSTIC, OPTICAL, polarization

from _helpers import (interpolated_sums, leapfrog, p0, per_call_corrector,
                      per_call_wave_corrector, per_row_snapshot)

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
    corrector_sum(spec, 0.7)  # fills the cache and the lazy correctors
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
    assert np.all(sample_first_order(spec, 1.3) + corrector_sum(spec, 1.3) == 0.0)
    s0 = initial_state(spec)
    assert np.all(s0.pos == 0.0) and np.all(s0.vel == 0.0)


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
    u = sample_first_order(spec, 0.37) + corrector_sum(spec, 0.37)
    v = first_order_velocity(spec, 0.37) + corrector_sum(spec, 0.37, True)
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
                                  sample_first_order(spec, 0.9) + corrector_sum(spec, 0.9))


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
    with leapfrog():
        s = microsim.integrate(p, s0, microsim.SimConfig(dt=0.001, T=10.0))
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
        pos = sample_first_order(spec, t)
        dpos, dvel = corrector_sum(spec, t), corrector_sum(spec, t, True)
        gaps.append(model.energy_norm(model.LatticeState(dpos, dvel, t), p))
        infs.append(np.abs(pos + dpos).max() / spec.eps)
        es.append(spec.eps)
    slope = np.polyfit(np.log(es), np.log(gaps), 1)[0]
    assert abs(slope - 1.5) <= 0.1
    assert max(infs) / min(infs) <= 2.0


def test_residual_requires_available_trajectory(monkeypatch):
    p = p0()
    spec = constant_spec(p, 0.1, 400, 0.0, a=0.5)
    with pytest.raises(ValueError):
        residual_norm(p, spec, -5.0, h0=0.01)
    # every time of a sequence is checked before any envelope is stepped
    stepped = []
    monkeypatch.setattr(spec.solution, "fields", lambda tau: stepped.append(tau))
    monkeypatch.setattr(amp, "strang_step", lambda *a: stepped.append(a))
    with pytest.raises(ValueError, match="t=-2.5 "):
        residual_norm(p, spec, [1.0, -2.5, 3.0], h0=0.01)
    assert not stepped


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
    cfg = harness.config_from_dict(dict(kind="residual_scaling", eps=[eps, eps / 2, eps / 4],
                                        tau0=1.0, L_y=40.0, n_grid=n_grid, nu=0.5,
                                        a0=[1.0, 0.5], **source))
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
        "eps": [0.1, 0.05, 0.025], "tau0": 0.5, "L_y": 40.0, "n_grid": 64})
    setup = harness.setup_run(cfg, 0.1)
    w1, w2 = setup.spec.macro.waves
    from dichain.spectrum import omega
    defect = abs(2 * omega(setup.p, ACOUSTIC, w1.theta)
                 - omega(setup.p, OPTICAL, 2 * w1.theta))
    assert defect <= 1e-12
    k = w1.theta * setup.spec.N / (2 * np.pi)
    assert abs(k - round(k)) < 1e-9


def _close(got, want, rtol=1e-12):
    """Each sum of ``got`` agrees with ``want``'s to rtol of the largest
    magnitude of its pair, positions and velocities: a velocity that
    vanishes, as at t = 0 with real envelopes on carriers at theta = 0 or
    pi, is rounding alone and has no scale of its own."""
    for pair in ((0, 1), (2, 3)):
        scale = max(np.abs(want[k]).max() for k in pair)
        if any(np.abs(got[k] - want[k]).max() > rtol * scale for k in pair):
            return False
    return True


def _sampled_sums(spec, t):
    """The four sums the samplers give at lattice time t."""
    return (sample_first_order(spec, t), first_order_velocity(spec, t),
            corrector_sum(spec, t), corrector_sum(spec, t, True))


def _sample_at(spec, t, *sample):
    """Make the spec's kept sample at lattice time t the ``_Sample`` of
    ``sample`` (fields[, snap, i]), whatever the solution holds there."""
    spec._sample = anz._Sample(spec, spec.eps * t, *sample)
    return spec._sample


# N = 800 lattice sites over n = 256 grid points (a zero pad), and N = 400
# over n = 1024, where up to three grid modes fold onto one lattice
# wavenumber
@pytest.mark.parametrize("eps,n_grid", [(0.05, 256), (0.1, 1024)], ids=["N-above-n", "N-below-n"])
@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_snapshot_matches_per_row_reference(source, eps, n_grid):
    """A stack's grid rows are those of one FFT round trip per row, bit for
    bit.  A state's sums are the same bits whether it is sampled alone,
    its correctors from an m = 1 stack, or out of a stack of four sampled
    out of order, and they are the per-row interpolants summed with fresh
    phase rows to 1e-12."""
    spec = _setup(source, eps, n_grid).spec
    assert (spec.N > spec.n) == (n_grid == 256)
    taus = (0.3, 0.1, 0.3, 0.0)
    states = [spec.solution.fields(tau) for tau in taus]
    refs = [per_row_snapshot(spec, fields) for fields in states]
    snap = anz._Snapshot(spec.macro, spec.L, states)
    for i in (2, 0, 3, 0, 1):
        ref = refs[i]
        for name in ("dy_grid", "dtau_grid"):
            assert np.array_equal(getattr(snap, name)[:, i], ref[name]), name
        t = taus[i] / spec.eps + 0.7
        _sample_at(spec, t, states[i])
        alone = _sampled_sums(spec, t)
        assert spec._sample.snap is not snap
        _sample_at(spec, t, snap.b_grid[:, i], snap, i)
        stacked = _sampled_sums(spec, t)
        for x, y in zip(alone, stacked):
            assert np.array_equal(x, y)
        assert _close(alone, _reference_sums(spec, states[i], t))


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_positions_alone_fold_two_rows_with_the_bits_of_four(monkeypatch, source):
    """sample_first_order without fold_velocity folds the two position
    rows alone, one (2, N) inverse FFT with the bits of the (4, N) fold;
    a first_order_velocity at that time then folds all four rows once, and
    the ansatz-gap sweep, which reads no leading velocity, keeps its rows."""
    spec = _setup(source).spec
    t = 0.3 / spec.eps
    fields = spec.solution.fields(spec.eps * t)
    _sample_at(spec, t, fields)
    pos, vel = sample_first_order(spec, t), first_order_velocity(spec, t)
    shapes = []

    def counted(a, *args, _fn=np.fft.ifft, **kw):
        shapes.append(np.shape(a))
        return _fn(a, *args, **kw)
    monkeypatch.setattr(np.fft, "ifft", counted)
    _sample_at(spec, t, fields)
    assert np.array_equal(sample_first_order(spec, t, False), pos)
    assert np.array_equal(sample_first_order(spec, t, False), pos)
    assert shapes == [(2, spec.N)]
    assert np.array_equal(first_order_velocity(spec, t), vel)
    assert np.array_equal(sample_first_order(spec, t, False), pos)
    assert np.array_equal(sample_first_order(spec, t), pos)
    assert shapes == [(2, spec.N), (4, spec.N)]
    monkeypatch.undo()
    cfg = harness.config_from_dict(dict(kind="ansatz_scaling", eps=[0.1, 0.0707, 0.05],
                                        tau0=0.5, L_y=40.0, n_grid=64, **source))
    rows = harness.run_ansatz_scaling(cfg).rows
    monkeypatch.setattr(anz, "sample_first_order",
                        lambda spec, t, fold_velocity=True, _f=sample_first_order: _f(spec, t))
    assert harness.run_ansatz_scaling(cfg).rows == rows


@pytest.mark.parametrize("source", SOURCES, ids=SOURCE_IDS)
def test_snapshot_makes_four_ffts_and_correctors_two(monkeypatch, source):
    """Per sample: one FFT of its state (with its sources when resonant).
    Per sample and lattice time: one inverse FFT for the leading positions
    and velocities and one for the corrector terms, each shared by the
    paired call.  Per stack, on first use of its correctors: its spectral
    derivative (two FFT calls), one corrector build and one FFT of the
    whole corrector stack; a sample alone builds an m = 1 stack, so its
    correctors make four FFT calls at their first time."""
    spec = _setup(source).spec
    states = [spec.solution.fields(tau) for tau in (0.3, 0.1, 0.2)]
    calls = collections.Counter()
    for name in ("fft", "ifft"):
        def counted(*a, _fn=getattr(np.fft, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(np.fft, name, counted)

    def built(*a, _fn=anz.second_order_amplitudes, **kw):
        calls["second_order"] += 1
        return _fn(*a, **kw)
    monkeypatch.setattr(anz, "second_order_amplitudes", built)

    t = 0.3 / spec.eps
    _sample_at(spec, t, states[0])
    assert calls == {"fft": 1}
    for time_derivative in (False, True):
        calls.clear()
        anz.corrector_sum(spec, t, time_derivative)
        assert calls == ({"fft": 2, "ifft": 2, "second_order": 1} if not time_derivative
                         else {})
    for f in (sample_first_order, first_order_velocity):
        calls.clear()
        f(spec, t)
        assert calls == ({"ifft": 1} if f is sample_first_order else {})

    calls.clear()
    snap = anz._Snapshot(spec.macro, spec.L, states)  # the stack's derivative
    assert calls == {"fft": 1, "ifft": 1}
    calls.clear()
    _sample_at(spec, t, snap.b_grid[:, 0], snap, 0)
    anz.corrector_sum(spec, t)
    assert calls == {"fft": 2, "ifft": 1, "second_order": 1}
    for i in (1, 2):
        calls.clear()
        _sample_at(spec, t, snap.b_grid[:, i], snap, i)
        anz.corrector_sum(spec, t)
        anz.corrector_sum(spec, t, True)
        assert calls == {"fft": 1, "ifft": 1}
    spec.at_taus((0.3, 0.1))
    spec.at_tau(0.1)
    calls.clear()
    spec.at_tau(0.1)  # the spec keeps the last sample read
    assert not calls


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


def _per_call_correctors(spec, fields, ref):
    """The carrier table and each carrier's corrector rows on the grid,
    keyed by carrier, from per-call corrector vectors; ``ref`` is the
    ``per_row_snapshot`` of ``fields``."""
    waves = spec.macro.waves
    b_grid = [np.asarray(f, dtype=complex) for f in fields]
    table = amp.carriers(spec.macro.resonant, *waves)
    cor = {iota: per_call_corrector(spec.p, waves, iota, om_v, th_v, b_grid)
           for iota, om_v, th_v in table[2:]}
    for k in (1, 2):
        cor[k] = per_call_wave_corrector(spec.p, spec.macro, k, b_grid, ref["dy_grid"],
                                         ref["dtau_grid"])
    return table, cor


def _reference_sums(spec, fields, t):
    """Leading positions and velocities, and the corrector position and
    velocity terms, at lattice time t from the envelope grids ``fields``,
    with fresh phases and per-call corrector vectors throughout."""
    ref = per_row_snapshot(spec, fields)
    waves = spec.macro.waves
    table, cor = _per_call_correctors(spec, fields, ref)
    cor_lat = dict(zip(cor, spec.interp(np.stack(list(cor.values())))))

    def first(envelopes):
        return _per_term_carrier_sum(spec, [(w.omega, w.theta, w.amplitude_vector(b))
                                            for w, b in zip(waves, envelopes)], t, spec.eps)

    def second(time_derivative):
        terms = []
        for iota, om_v, th_v in table:
            c = 1j * om_v if time_derivative else 1.0
            if c != 0.0:
                terms.append((om_v, th_v, c * cor_lat[iota]))
        return _per_term_carrier_sum(spec, terms, t, spec.eps ** 2)

    vel = [1j * w.omega * b + spec.eps * d
           for w, b, d in zip(waves, ref["b_lat"], ref["dtau_lat"])]
    return first(ref["b_lat"]), first(vel), second(False), second(True)


def _per_carrier_positions(spec, fields, t):
    """The improved positions at lattice time t as one sum over the carrier
    table: each carrier's amplitude row, eps^2 times its per-call corrector
    plus, on a wave carrier, eps times the wave's amplitude vector, made on
    the grid, interpolated to the lattice and summed with fresh phases."""
    table, cor = _per_call_correctors(spec, fields, per_row_snapshot(spec, fields))
    amps = {iota: spec.eps ** 2 * cor[iota] for iota, _, _ in table}
    for iota, w, b in zip((1, 2), spec.macro.waves, fields):
        amps[iota] = amps[iota] + spec.eps * np.asarray(
            w.amplitude_vector(np.asarray(b, dtype=complex)))
    lat = spec.interp(np.stack(list(amps.values())))
    return _per_term_carrier_sum(spec, [(om_v, th_v, a) for (_, om_v, th_v), a
                                        in zip(table, lat)], t, 1.0)


def _two_sum_positions(spec, fields, t):
    """The improved positions as the leading sum plus the corrector sum."""
    pos, _, cor, _ = _reference_sums(spec, fields, t)
    return pos + cor


def _reference_residual(spec, t, h0, positions=_per_carrier_positions):
    h = spec.eps ** 2 * h0
    base = spec.solution.fields(spec.eps * t)
    um, u0, up = [positions(spec, amp.strang_step(spec.macro, base, spec.L, spec.eps * dt)
                            if dt else base, t + dt) for dt in (-h, 0.0, h)]
    udd = (up - 2.0 * u0 + um) / (h * h)
    return model.norm_m(model.force(spec.p, u0) - udd, spec.p)


@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_shared_phases_and_matrices_match_per_call_arithmetic(source):
    """Every sampler gives the sums of fresh phase rows and per-call solves
    to 1e-12, from single snapshots and from one stack of every tau (as
    the ansatz sweep reads them).  Times are revisited out of order and
    two specs of different N (the same carriers in the pi regime)
    interleave, so a stale fold shows.  residual_norm keeps their bits,
    and a sequence of residual times, out of order and with one repeated,
    gives each time's norm."""
    specs = [_setup(source, eps, 128).spec for eps in (0.1, 0.05)]
    assert specs[0].N != specs[1].N
    taus = (0.3, 0.1, 0.3, 0.0, 0.2, 0.1)
    for stacked in (False, True):
        if stacked:
            for spec in specs:
                spec.at_taus([spec.eps * (tau / spec.eps) for tau in taus])
        for tau in taus:
            for spec in specs:
                t = tau / spec.eps
                fields = spec.solution.fields(spec.eps * t)
                got = (anz.corrector_sum(spec, t, True), sample_first_order(spec, t),
                       anz.corrector_sum(spec, t), first_order_velocity(spec, t))
                assert _close([got[k] for k in (1, 3, 2, 0)], _reference_sums(spec, fields, t))
        if stacked:  # every tau was read from the one stack
            assert all(len(spec._cache) == len(set(taus)) for spec in specs)
    for spec in specs:
        pos, vel, cor, cor_vel = _reference_sums(spec, spec.solution.fields(0.0), 0.0)
        for improved, ref in ((True, (pos + cor, vel + cor_vel)), (False, (pos, vel))):
            s0 = initial_state(spec, improved)
            assert _close((s0.pos, s0.vel) * 2, ref * 2)
    for t in (0.25, 0.15):
        for spec in specs:
            t_lat = t / spec.eps
            ref = _reference_residual(spec, t_lat, 0.02)
            assert residual_norm(spec.p, spec, t_lat, h0=0.02) == ref
            # the leading sum plus the corrector sum rounds otherwise, and the
            # division by h^2 amplifies that: up to 2.2e-5 relative on these
            # specs (6.1e-6 at these times)
            two_sums = _reference_residual(spec, t_lat, 0.02, _two_sum_positions)
            assert abs(two_sums - ref) <= 1e-4 * ref
    for spec in specs:
        times = [tau / spec.eps for tau in (0.25, 0.1, 0.3, 0.1, 0.0)]
        assert residual_norm(spec.p, spec, times, h0=0.02) == \
            [_reference_residual(spec, t, 0.02) for t in times]


@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_residual_interpolates_one_amplitude_stack_per_state(monkeypatch, source):
    """residual_norm over m times makes 3m interpolations, one per state of
    its (K, 2, n) amplitude rows, and samples nothing through _Sample."""
    spec = _setup(source, 0.1, 128).spec
    shapes = []

    def interp(s, values, _interp=AnsatzSpec.interp):
        shapes.append(np.shape(values))
        return _interp(s, values)

    def no_sample(*a, **kw):
        raise AssertionError("residual_norm built a _Sample")

    monkeypatch.setattr(AnsatzSpec, "interp", interp)
    monkeypatch.setattr(anz, "_Sample", no_sample)
    for m in (1, 4):
        shapes.clear()
        residual_norm(spec.p, spec, [tau / spec.eps for tau in (0.1, 0.3, 0.2, 0.1)[:m]], h0=0.02)
        assert shapes == [(len(spec.carriers), 2, spec.n)] * (3 * m)


@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_flat_phase_scalar_matches_the_row_path(monkeypatch, source):
    """At theta = 0 (every carrier at c = 1, and the mean carrier) the
    phase of residual_norm's carrier sums is one numpy scalar: its norms
    equal, bit for bit, those built on the full row
    exp(i(omega*t + theta*j))."""
    spec = _setup(source, 0.1, 128).spec
    times = [tau / spec.eps for tau in (0.0, 0.3, 0.7)]
    flat = residual_norm(spec.p, spec, times, h0=0.02)
    assert [np.ndim(spec.phase_row(om, th, times[-1])) for _, om, th in spec.carriers] == \
        [int(th != 0.0) for _, _, th in spec.carriers]
    monkeypatch.setattr(AnsatzSpec, "phase_row", lambda s, omega, theta, t: np.exp(
        1j * (omega * t + np.arange(s.N) * theta)))
    assert residual_norm(spec.p, spec, times, h0=0.02) == flat


@pytest.mark.parametrize("source,rows", zip(REGIMES, (7, 5, 5, 5)), ids=REGIME_IDS)
def test_phase_rows_once_per_carrier_and_time(monkeypatch, source, rows):
    """residual_norm, the one caller of phase_row, builds one exp row per
    carrier and state time, shared by the carrier sum's two components:
    7 rows non-resonant and 5 resonant, each a scalar at theta = 0 (the
    mean carrier, and every carrier at c = 1).  The samplers build none."""
    spec = _setup(source, 0.1, 128).spec
    built, summing = collections.Counter(), [False]

    def counted(x, *a, _exp=np.exp, **kw):
        if summing[0]:
            built[np.ndim(x)] += 1
        return _exp(x, *a, **kw)

    def carrier_sum(*a, _sum=anz._carrier_sum):
        summing[0] = True
        try:
            return _sum(*a)
        finally:
            summing[0] = False

    monkeypatch.setattr(np, "exp", counted)
    monkeypatch.setattr(anz, "_carrier_sum", carrier_sum)
    flat = sum(th == 0.0 for _, _, th in spec.carriers)
    for tau in (0.3, 0.4):
        t = tau / spec.eps
        residual_norm(spec.p, spec, t, h0=0.02)  # the states at t - h, t and t + h
        assert (built[0], built[1]) == (3 * flat, 3 * (rows - flat))
        assert rows == len(spec._phases) == len(spec.carriers)
        built.clear()
        _sampled_sums(spec, t)
        initial_state(spec)
        assert not built


@pytest.mark.parametrize("eps,n_grid", [(0.05, 256), (0.1, 1024)], ids=["N-above-n", "N-below-n"])
@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_fold_matches_interpolated_phase_row_sums(source, eps, n_grid):
    """Each carrier's grid spectrum shifted by theta*N/2pi and folded with
    the others into one inverse FFT gives the sums of the interpolated
    amplitudes times phase rows (``_helpers.interpolated_sums``) to 1e-12
    of their largest magnitude, in every regime, with the lattice finer
    and coarser than the grid, and at lattice phases omega*t + theta*j far
    past 2*pi."""
    spec = _setup(source, eps, n_grid).spec
    assert (spec.N > spec.n) == (n_grid == 256)
    for tau in (0.0, 0.3, 0.9):
        t = tau / spec.eps
        want = interpolated_sums(spec, spec.solution.fields(spec.eps * t), t)
        assert _close(_sampled_sums(spec, t), want)
    s0 = initial_state(spec)
    want = interpolated_sums(spec, spec.solution.fields(0.0), 0.0)
    assert _close((s0.pos, s0.vel) * 2, (want[0] + want[2], want[1] + want[3]) * 2)


@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_one_inverse_fft_per_sample_and_time(monkeypatch, source):
    """The samplers make one inverse FFT per sample and lattice time for
    the leading terms and one for the correctors, whichever of the paired
    calls comes first, out of one snapshot stack as the ansatz sweep reads
    it and in initial_state; they call neither interp nor phase_row,
    which only residual_norm calls."""
    spec = _setup(source, 0.1, 128).spec
    times = [tau / spec.eps for tau in (0.3, 0.1, 0.2)]
    spec.at_taus([spec.eps * t for t in times])
    corrector_sum(spec, times[0])  # the stack's corrector spectra, made once
    calls = collections.Counter()

    def counted(*a, _fn=np.fft.ifft, **kw):
        calls["ifft"] += 1
        return _fn(*a, **kw)

    def refused(*a, **kw):
        raise AssertionError("a sampler called interp or phase_row")

    monkeypatch.setattr(np.fft, "ifft", counted)
    monkeypatch.setattr(AnsatzSpec, "interp", refused)
    monkeypatch.setattr(AnsatzSpec, "phase_row", refused)
    for t in (times[1], times[0], times[2], times[0]):  # each a new sample
        calls.clear()
        first_order_velocity(spec, t)
        corrector_sum(spec, t, True)
        assert calls == {"ifft": 2}
        sample_first_order(spec, t)
        corrector_sum(spec, t)
        assert calls == {"ifft": 2}
    spec.at_taus([0.0])
    calls.clear()
    initial_state(spec)
    assert calls == {"ifft": 2}


@pytest.mark.parametrize("source", REGIMES, ids=REGIME_IDS)
def test_tau_derivative_takes_no_multiply_by_a_velocity_of_zero(source):
    """The grid's dB/dtau is v*dB/dy plus the sources, bit for bit, on a
    moving row, and the sources alone on a row at rest (both rows at
    c = 1, the optical one at half-pi), which a non-finite dB/dy there
    shows; the wavenumbers are built once per (L, n), read-only."""
    spec = _setup(source, 0.1, 128).spec
    macro = spec.macro
    b = np.asarray(spec.solution.fields(0.3), dtype=complex)
    dy = amp.spectral_derivative(b, spec.L)
    sources = amp._source_rhs(macro, b) if macro.resonant else np.zeros_like(b)
    dy[[v == 0.0 for v in macro.velocities]] = np.nan
    for v, got, d, s in zip(macro.velocities, amp.tau_derivative(macro, b, dy), dy, sources):
        assert np.array_equal(got, s if v == 0.0 else v * d + s)
    kappa = amp.wavenumbers(spec.L, spec.n)
    assert kappa is amp.wavenumbers(spec.L, spec.n) and not kappa.flags.writeable
