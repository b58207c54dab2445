"""Microscopic sampling of the two-scale approximations.

Builds lattice positions/velocities from envelope fields (first-order
and improved), produces consistent initial data for the full
simulation, and measures the equation defect of the improved ansatz
numerically.

Each constant is computed once.  A snapshot of the envelopes at one tau
is interpolated to the lattice in one stacked FFT pass, and its
correctors in one more.  The spec keeps the carrier phase rows
exp(i(omega*t + theta*j)) of the last lattice time t, one per carrier, so
the position, velocity and corrector sums at one time share them.  The
corrector solves keep H(Omega, Theta) and det H per (params, carrier)
(``amplitude._corrector_matrix``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import amplitude as amp
from .amplitude import MacroSystem, ansatz_carriers, second_order_amplitudes, tau_derivative
from .model import ChainParams, LatticeState, force, norm_m


class IncommensurateCarrier(ValueError):
    """Carrier wavenumber does not fit the periodic lattice."""


class _Snapshot:
    """Envelope data at one macroscopic time, interpolated to the lattice.

    Four FFT calls: one spectral derivative of the (2, n) envelope stack
    and one interpolation of the (4, n) stack of the envelopes and their
    tau-derivatives.  Second-order correctors are built lazily, by
    ``_correctors``, into one (K, 2, n) stack that a single interpolation
    takes as it is; convergence sampling only needs the first-order fields
    at most times.
    """

    def __init__(self, spec: "AnsatzSpec", fields):
        self.b_grid = np.asarray(fields, dtype=complex)
        self.dy_grid = amp.spectral_derivative(self.b_grid, spec.L)
        self.dtau_grid = tau_derivative(spec.macro, self.b_grid, self.dy_grid)
        lat = spec.interp(np.stack((*self.b_grid, *self.dtau_grid)))
        self.b_lat, self.dtau_lat = lat[:2], lat[2:]
        self.a2_lat = None


def _correctors(spec: "AnsatzSpec", snap: _Snapshot) -> dict:
    """The snapshot's second-order correctors on the lattice, built on
    first use by one interpolation of every carrier's rows."""
    if snap.a2_lat is None:
        stack = np.empty((len(spec.carriers), 2, spec.n), dtype=complex)
        a2 = second_order_amplitudes(spec.p, spec.macro, snap.b_grid, snap.dy_grid,
                                     snap.dtau_grid, out=stack)
        snap.a2_lat = dict(zip(a2, spec.interp(stack)))
    return snap.a2_lat


@dataclass
class AnsatzSpec:
    """Everything needed to sample the approximations on the lattice.

    The macroscopic domain length is tied to the lattice by L = eps*N;
    the envelope solution provides fields at any tau.  The spec keeps
    the snapshot of the last tau asked for (``at_tau``; every caller asks
    for one tau at a time), the improved-ansatz carrier table, and the
    phase rows of the last lattice time asked for (``phase_row``).
    """

    p: ChainParams
    eps: float
    N: int
    n: int
    macro: MacroSystem
    solution: object
    carriers: list = field(init=False, repr=False)
    _fold: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)
    _phase_t: float = field(init=False, repr=False, default=None)
    _phases: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for w in self.macro.waves:
            k = w.theta * self.N / (2.0 * np.pi)
            if abs(k - round(k)) > 1e-9:
                raise IncommensurateCarrier(
                    f"theta={w.theta} incommensurate with N={self.N}")
        # lattice wavenumber index m mod N of each grid mode m (fftfreq order,
        # Nyquist at m = -n/2); with N < n several modes alias to one index
        self._fold = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int) % self.N
        self.carriers = ansatz_carriers(self.macro.mode, *self.macro.waves)

    @property
    def L(self) -> float:
        return self.eps * self.N

    def interp(self, grid_values: np.ndarray) -> np.ndarray:
        """Spectral interpolation from the macro grid to y = eps*j, along
        the last axis of one grid or of a stack of them.

        The lattice is a uniform N-point grid over the same period, so the
        trigonometric interpolant there is the inverse FFT of the grid's
        coefficients folded onto the N lattice wavenumbers (a zero pad when
        N >= n).  A stack takes one forward and one inverse FFT, and one
        fold through a flat index: each row gets the sums a single grid
        gets, in the same order, and ufunc.at takes its fast path for a
        1-D index (an ``(..., fold)`` index takes the generic one, two to
        three times slower).
        """
        hat = np.fft.fft(grid_values)
        pad = np.zeros(hat.shape[:-1] + (self.N,), dtype=complex)
        starts = self.N * np.arange(pad.size // self.N)
        np.add.at(pad.reshape(-1), (starts[:, None] + self._fold).ravel(), hat.reshape(-1))
        return np.fft.ifft(pad) * (self.N / self.n)

    def at_tau(self, tau: float) -> _Snapshot:
        """The envelope snapshot at tau, kept until another tau is asked for."""
        snap = self._cache.get(tau)
        if snap is None:
            snap = _Snapshot(self, self.solution.fields(tau))
            self._cache = {tau: snap}
        return snap

    def phase_row(self, omega: float, theta: float, t: float) -> np.ndarray:
        """exp(i(omega*t + theta*j)) over the lattice sites j, built once
        per carrier for the last time t asked for."""
        if t != self._phase_t:
            self._phase_t, self._phases = t, {}
        row = self._phases.get((omega, theta))
        if row is None:
            j = np.arange(self.N)
            row = self._phases[omega, theta] = np.exp(1j * (omega * t + j * theta))
        return row


def _carrier_sum(spec: AnsatzSpec, terms, t: float, scale: float) -> np.ndarray:
    """2*scale*Re of the sum of a*exp(i(omega*t + theta*j)) over the
    (omega, theta, a) terms, where a holds the amplitudes of both
    components on the lattice."""
    u = np.zeros((spec.N, 2), dtype=complex)
    for omega, theta, a in terms:
        e = spec.phase_row(omega, theta, t)
        u[:, 0] += a[0] * e
        u[:, 1] += a[1] * e
    return 2.0 * scale * u.real


def _first_order_sum(spec: AnsatzSpec, envelopes, t: float) -> np.ndarray:
    return _carrier_sum(spec, [(w.omega, w.theta, w.amplitude_vector(b))
                               for w, b in zip(spec.macro.waves, envelopes)], t, spec.eps)


def sample_first_order(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Positions of the leading approximation at lattice time t."""
    return _first_order_sum(spec, spec.at_tau(spec.eps * t).b_lat, t)


def first_order_velocity(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Exact time derivative of the leading approximation."""
    snap = spec.at_tau(spec.eps * t)
    return _first_order_sum(spec, [1j * w.omega * b + spec.eps * d for w, b, d
                                   in zip(spec.macro.waves, snap.b_lat, snap.dtau_lat)], t)


def _second_order_sum(spec: AnsatzSpec, snap: _Snapshot, t: float, time_derivative: bool):
    a2_lat = _correctors(spec, snap)
    terms = []
    for iota, om_v, th_v, weight in spec.carriers:
        c = weight * (1j * om_v if time_derivative else 1.0)
        if c != 0.0:
            terms.append((om_v, th_v, c * a2_lat[iota]))
    return _carrier_sum(spec, terms, t, spec.eps ** 2)


def _sample_improved_snap(spec: AnsatzSpec, snap: _Snapshot, t: float) -> np.ndarray:
    return _first_order_sum(spec, snap.b_lat, t) + _second_order_sum(spec, snap, t, False)


def sample_improved(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Positions of the improved approximation (with eps^2 correctors)."""
    snap = spec.at_tau(spec.eps * t)
    return _sample_improved_snap(spec, snap, t)


def corrector_sum(spec: AnsatzSpec, t: float, time_derivative: bool = False) -> np.ndarray:
    """The eps^2 corrector term of the improved approximation at lattice
    time t, or with ``time_derivative`` its velocity term: adding it to
    sample_first_order (first_order_velocity) gives sample_improved
    (improved_velocity) bit for bit."""
    return _second_order_sum(spec, spec.at_tau(spec.eps * t), t, time_derivative)


def improved_velocity(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Time derivative of the improved approximation.

    The eps^3 term from the tau-dependence of the correctors is dropped;
    it sits below the eps^{3/2} initial-error budget.
    """
    return first_order_velocity(spec, t) + corrector_sum(spec, t, True)


def initial_state(spec: AnsatzSpec, improved: bool = True) -> LatticeState:
    """Consistent initial data for the microscopic simulation."""
    if improved:
        return LatticeState(sample_improved(spec, 0.0), improved_velocity(spec, 0.0), 0.0)
    return LatticeState(sample_first_order(spec, 0.0), first_order_velocity(spec, 0.0), 0.0)


def residual_norm(p: ChainParams, spec: AnsatzSpec, t: float, h0: float = 0.01) -> float:
    """Mass-weighted l2 norm of L(U) + M(U) - Udotdot for the improved
    ansatz U, with Udotdot by central difference at step h = eps^2*h0.

    The step keeps the finite-difference error below the eps^{5/2}
    signal being measured.  The division by h^2 also amplifies the rounding
    of the phases omega*t + theta*j (up to 2,550 rad at N = 400 and 10,152
    at N = 1,600), which differs between t - h, t and t + h: rounding them
    any other way, such as factoring out exp(i*omega*t), moved a row of the
    c = 0.5 family by 2.7e-3 relative.
    """
    if t < 0:
        raise ValueError(f"amplitude trajectory unavailable at t={t} < 0")
    h = spec.eps ** 2 * h0
    base = spec.solution.fields(spec.eps * t)
    # the neighbours are one envelope step of +-eps*h from the state at t,
    # not dense evaluations: the second difference divides by h^2 and would
    # amplify any interpolation noise of a dense solution (the step is the
    # exact flow when non-resonant)
    snaps = [_Snapshot(spec, amp.strang_step(spec.macro, base, spec.L, spec.eps * dt)
                       if dt else base) for dt in (-h, 0.0, h)]
    um, u0, up = (_sample_improved_snap(spec, s, t + dt)
                  for s, dt in zip(snaps, (-h, 0.0, h)))
    udd = (up - 2.0 * u0 + um) / (h * h)
    res = force(p, u0) - udd
    return norm_m(res, p)
