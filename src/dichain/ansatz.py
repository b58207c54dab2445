"""Microscopic sampling of the two-scale approximations.

Builds lattice positions/velocities from envelope fields, produces
consistent initial data for the full simulation, and measures the
equation defect of the improved ansatz numerically.  The improved
approximation is the leading one plus the corrector sum, one carrier sum
over the table ``amplitude.carriers`` (the spec's ``carriers``) and the
corrector rows in its order.

Envelope states are read as a stack (``_Snapshot``): m states are one
(2, m, n) grid stack and one FFT of it, which gives the spectra of B and
of dB/dtau from the envelope equations; dB/dy and dB/dtau on the grid,
for the correctors, are one inverse FFT each.  The samplers sum carriers
in Fourier space (``_fold_sum``): a carrier's amplitude on the lattice
times exp(i(omega*t + theta*j)) is the inverse FFT of its grid spectrum
shifted by the integer wavenumber theta*N/2pi and scaled by
exp(i*omega*t), so the positions and velocities of every carrier are one
(4, N) inverse FFT, per state and time one for the leading terms and one
for the correctors, whose spectra are one FFT of the stack's whole
(K, 2, m, n) corrector stack.  ``residual_norm`` sums one amplitude row
per carrier, made on the grid for its whole stack: one interpolation and
one carrier sum per state (``_carrier_sum``; ``residual_norm`` says why).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import amplitude as amp
from .amplitude import MacroSystem, carriers, second_order_amplitudes
from .model import ChainParams, LatticeState, force, norm_m


class IncommensurateCarrier(ValueError):
    """Carrier wavenumber does not fit the periodic lattice."""


class _Snapshot:
    """Envelope data at m macroscopic times: the m states as one (2, m, n)
    grid stack and, by one FFT of it (stacked with its sources when
    resonant), the spectra of B and of dB/dtau = v*dB/dy + source, the
    latter v*i*kappa*B on the moving rows plus the sources', i*kappa zero
    on the unpaired Nyquist mode, which carries no derivative.  First made
    by ``_sums``, ``a2_hat``: the FFT of its (K, 2, m, n) corrector stack
    (one ``second_order_amplitudes`` call)."""

    def __init__(self, spec: "AnsatzSpec", states):
        macro, n, self.a2_hat = spec.macro, spec.n, None
        self._ik = 1j * amp.wavenumbers(spec.L, n)
        if n % 2 == 0:
            self._ik[n // 2] = 0.0
        b = self.b_grid = np.stack(states, axis=1).astype(complex, copy=False)
        hat = np.fft.fft(np.concatenate((b, amp._source_rhs(macro, b))) if macro.resonant else b)
        self.b_hat, self.dtau_hat = hat[:2], hat[2:] if macro.resonant else np.zeros_like(hat)
        for k in np.flatnonzero(macro.velocities):  # no multiply by a velocity of 0
            self.dtau_hat[k] += macro.velocities[k] * (self._ik * hat[k])

    def grids(self):
        """B, dB/dy and dB/dtau on the grid, the latter two one inverse FFT each."""
        return self.b_grid, np.fft.ifft(self.b_hat * self._ik), np.fft.ifft(self.dtau_hat)


@dataclass
class AnsatzSpec:
    """Everything needed to sample the approximations on the lattice.

    The macroscopic domain length is tied to the lattice by L = eps*N;
    the envelope solution provides fields at any tau.  The spec keeps the
    improved-ansatz carrier table, the stack ``at_tau`` reads (the last
    ``at_taus`` stack, or the m = 1 stack of the last tau asked for) and
    the last fold of each kind (``_sums``).  A ring of a lattice sweep
    holds the sweep's (tau0, n_samples) as ``sample_times``.
    """

    p: ChainParams
    eps: float
    N: int
    n: int
    macro: MacroSystem
    solution: object
    carriers: list = field(init=False, repr=False)
    _fold: np.ndarray = field(init=False, repr=False)
    _omegas: np.ndarray = field(init=False, repr=False)
    sample_times: tuple = field(init=False, repr=False, default=None)
    _cache: dict = field(init=False, repr=False, default_factory=dict)
    _folds: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for w in self.macro.waves:
            k = w.theta * self.N / (2.0 * np.pi)
            if abs(k - round(k)) > 1e-9:
                raise IncommensurateCarrier(
                    f"theta={w.theta} incommensurate with N={self.N}")
        # lattice wavenumber index m mod N of each grid mode m (fftfreq order,
        # Nyquist at m = -n/2); with N < n several modes alias to one index
        self._fold = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int) % self.N
        self.carriers = carriers(self.macro.resonant, *self.macro.waves)
        self._omegas = np.array([om for _, om, _ in self.carriers])

    @property
    def L(self) -> float:
        return self.eps * self.N

    @cached_property
    def _shift(self) -> np.ndarray:
        """Per carrier, its grid modes' flat indices into a (4, N) pad, shifted by theta*N/2pi."""
        k = np.rint([th * self.N / (2.0 * np.pi) for _, _, th in self.carriers]).astype(int)
        return (self._fold + k[:, None, None]) % self.N + self.N * np.arange(4)[:, None]

    def interp(self, grid_values: np.ndarray) -> np.ndarray:
        """Spectral interpolation from the macro grid to y = eps*j, along
        the last axis of one grid or of a stack of them.

        The lattice is a uniform N-point grid over the same period, so the
        trigonometric interpolant there is the inverse FFT of the grid's
        coefficients folded onto the N lattice wavenumbers (a zero pad when
        N >= n).  A stack takes one forward and one inverse FFT, and one
        fold through a flat index (ufunc.at's fast path): each row gets the
        sums a single grid gets, in the same order.
        """
        hat = np.fft.fft(grid_values)
        pad = np.zeros(hat.shape[:-1] + (self.N,), dtype=complex)
        starts = self.N * np.arange(pad.size // self.N)
        np.add.at(pad.reshape(-1), (starts[:, None] + self._fold).ravel(), hat.reshape(-1))
        return np.fft.ifft(pad) * (self.N / self.n)

    def at_tau(self, tau: float):
        """(stack, i): tau's state is row i of the stack of the last
        ``at_taus`` when tau is in it, else of an m = 1 stack of its own,
        kept until another tau is asked for.  With ``sample_times``, tau is
        first rounded to the sample time i*tau0/n_samples (else
        ValueError), so every ring of a sweep asks for the same taus."""
        if self.sample_times is not None:
            tau0, n_samples = self.sample_times
            tau_i = round(tau * n_samples / tau0) * tau0 / n_samples
            if abs(tau - tau_i) > 1e-9 * tau0:
                raise ValueError(f"tau={tau} is not a sample time i*tau0/n_samples of the sweep")
            tau = tau_i
        if tau not in self._cache:
            self._cache, self._folds = {}, {}  # the last stack freed before the next one is made
            self._cache = {tau: (_Snapshot(self, [self.solution.fields(tau)]), 0)}
        return self._cache[tau]

    def at_taus(self, taus) -> None:
        """Build the states of the taus as one stack, for ``at_tau`` to
        serve; the samplers ask for tau = eps*t at lattice time t."""
        stack = _Snapshot(self, [self.solution.fields(tau) for tau in taus])
        self._cache = {tau: (stack, i) for i, tau in enumerate(taus)}


def _carrier_sum(spec: AnsatzSpec, amps: np.ndarray, t: float) -> np.ndarray:
    """2*Re of sum_c a_c*exp(i(omega_c*t + theta_c*j)) over the carriers,
    from the (K, 2, N) amplitudes a_c of both components on the lattice.
    At theta = 0 every site has the same phase, so the row is that one
    numpy scalar, each element's bits."""
    u = np.zeros((spec.N, 2), dtype=complex)
    for (_, omega, theta), a in zip(spec.carriers, amps):
        e = np.exp(1j * (omega * t + (np.arange(spec.N) if theta != 0.0 else 0.0) * theta))
        u[:, 0] += a[0] * e
        u[:, 1] += a[1] * e
    return 2.0 * u.real


def _fold_sum(spec: AnsatzSpec, spectra: np.ndarray, t: float, scale: float) -> np.ndarray:
    """2*scale*Re of sum_c a_c*exp(i(omega_c*t + theta_c*j)) over the first
    K carriers, from the (K, r, n) grid spectra of the a_c: each, times
    exp(i*omega_c*t), is added into one zero (r, N) pad at ``_shift``, and
    one inverse FFT gives the (r, N) sums, read-only."""
    K, r = spectra.shape[:2]
    pad = np.zeros((r, spec.N), dtype=complex)
    phases = np.exp(1j * (spec._omegas[:K] * t))
    np.add.at(pad.reshape(-1), spec._shift[:K, :r].ravel(),
              (spectra * phases[:, None, None]).reshape(-1))
    sums = np.fft.ifft(pad).real * (2.0 * scale * spec.N / spec.n)
    sums.flags.writeable = False
    return sums


def _sums(spec: AnsatzSpec, t: float, correctors: bool, rows: int = 4) -> np.ndarray:
    """The positions, then velocities, at lattice time t of the leading terms
    or, with ``correctors``, of the eps^2 corrector terms (their rows and
    i*omega times them), at least ``rows`` of the 4: one fold per state and
    time, kept on the spec until the next one of its kind."""
    stack, i = spec.at_tau(spec.eps * t)
    key, kept = (stack, i, t), spec._folds.get(correctors)
    if kept is None or kept[0] != key or len(kept[1]) < rows:
        if correctors:
            if stack.a2_hat is None:
                a2 = np.empty((len(spec.carriers),) + stack.b_grid.shape, dtype=complex)
                second_order_amplitudes(spec.p, spec.macro, *stack.grids(), out=a2)
                stack.a2_hat = np.fft.fft(a2)
            a = stack.a2_hat[:, :, i]
            spectra = np.concatenate((a, a * (1j * spec._omegas)[:, None, None]), axis=1)
        else:  # the amplitude vectors of B and of i*omega*B + eps*dB/dtau per wave
            spectra = np.array([[*w.amplitude_vector(b), *w.amplitude_vector(
                1j * w.omega * b + spec.eps * d)] for w, b, d in zip(
                    spec.macro.waves, stack.b_hat[:, i], stack.dtau_hat[:, i])])
        scale = spec.eps ** 2 if correctors else spec.eps
        kept = spec._folds[correctors] = key, _fold_sum(spec, spectra[:, :rows], t, scale)
    return kept[1]


def sample_first_order(spec: AnsatzSpec, t: float, fold_velocity: bool = True) -> np.ndarray:
    """Positions of the leading approximation at lattice time t, (N, 2), read-only;
    ``fold_velocity`` folds the rows a paired ``first_order_velocity`` reads too."""
    return _sums(spec, t, False, 4 if fold_velocity else 2)[:2].T


def first_order_velocity(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Exact time derivative of the leading approximation."""
    return _sums(spec, t, False)[2:].T


def corrector_sum(spec: AnsatzSpec, t: float, time_derivative: bool = False) -> np.ndarray:
    """The eps^2 corrector term of the improved approximation at lattice
    time t, or with ``time_derivative`` its velocity term: the improved
    positions (velocities) are sample_first_order (first_order_velocity)
    plus this.  The velocity term drops the eps^3 term of the correctors'
    tau-dependence, below the eps^{3/2} initial-error budget."""
    sums = _sums(spec, t, True)
    return (sums[2:] if time_derivative else sums[:2]).T


def initial_state(spec: AnsatzSpec, improved: bool = True) -> LatticeState:
    """Consistent initial data for the microscopic simulation: the leading
    approximation, plus the correctors when ``improved``."""
    pos, vel = sample_first_order(spec, 0.0), first_order_velocity(spec, 0.0)
    if improved:
        pos, vel = pos + corrector_sum(spec, 0.0), vel + corrector_sum(spec, 0.0, True)
    return LatticeState(pos, vel, 0.0)


def residual_norm(p: ChainParams, spec: AnsatzSpec, t, h0: float):
    """Mass-weighted l2 norm of L(U) + M(U) - Udotdot for the improved
    ansatz U, with Udotdot by central difference at step h = eps^2*h0, at
    lattice time t, or one norm per time when t is a sequence of times.

    The envelope states at t - h, t and t + h of every time make one
    ``_Snapshot`` stack, so all of them share one pass of grid work: the
    correctors and, on the two wave carriers, eps times the wave's
    amplitude vector make one (K, 2, 3m, n) stack of amplitude rows, one
    per carrier, and each state is one interpolation of its (K, 2, n)
    slice and one carrier sum.  The step keeps the finite-difference error
    below the eps^{5/2} signal being measured.  The division by h^2 also
    amplifies the rounding of the phases omega*t + theta*j (up to 2,550
    rad at N = 400 and 10,152 at N = 1,600), which differs between t - h,
    t and t + h: rounding them any other way moves a row of the c = 0.5
    family by 2.7e-3 relative, both factoring out exp(i*omega*t) and the
    samplers' spectral fold.  So it alone sums carriers on ``interp``'s
    rows and phase rows (``_carrier_sum``), unchanged, until the residual
    differences the slow amplitudes alone (ROADMAP item 6).
    """
    times = [t] if np.ndim(t) == 0 else list(t)
    if min(times) < 0:
        raise ValueError(f"amplitude trajectory unavailable at t={min(times)} < 0")
    h = spec.eps ** 2 * h0
    steps = (-h, 0.0, h)
    states = []
    for s in times:
        base = spec.solution.fields(spec.eps * s)
        # the neighbours are one envelope step of +-eps*h from the state at
        # s, not dense evaluations: the second difference divides by h^2 and
        # would amplify any interpolation noise of a dense solution (the
        # step is the exact flow when non-resonant)
        states += [amp.strang_step(spec.macro, base, spec.L, spec.eps * dt) if dt else base
                   for dt in steps]
    b, dy, dtau = _Snapshot(spec, states).grids()  # its spectra freed before the rows are made
    # one amplitude row per carrier on the grid: eps^2 times the corrector,
    # plus eps times the wave's amplitude vector on the two wave carriers
    amps = np.empty((len(spec.carriers),) + b.shape, dtype=complex)
    second_order_amplitudes(spec.p, spec.macro, b, dy, dtau, out=amps)
    amps *= spec.eps ** 2
    for rows, w, bw in zip(amps, spec.macro.waves, b):
        for row, v in zip(rows, w.amplitude_vector(bw)):
            row += spec.eps * v
    norms = []
    for k, s in enumerate(times):
        # the improved positions of states 3k + d, d = 0, 1, 2
        um, u0, up = (_carrier_sum(spec, spec.interp(amps[:, :, 3 * k + d]), s + dt)
                      for d, dt in enumerate(steps))
        udd = (up - 2.0 * u0 + um) / (h * h)
        norms.append(norm_m(force(p, u0) - udd, p))
    return norms if np.ndim(t) else norms[0]
