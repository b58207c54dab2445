"""Microscopic sampling of the two-scale approximations.

Builds lattice positions/velocities from envelope fields (first-order
and improved), produces consistent initial data for the full
simulation, and measures the equation defect of the improved ansatz
numerically.
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

    Second-order correctors are built lazily, by ``_correctors``;
    convergence sampling only needs the first-order fields at most times.
    """

    def __init__(self, spec: "AnsatzSpec", tau: float, fields=None):
        b1, b2 = spec.solution.fields(tau) if fields is None else fields
        self.b_grid = (b1, b2)
        self.dy_grid = (amp.spectral_derivative(b1, spec.L),
                        amp.spectral_derivative(b2, spec.L))
        self.dtau_grid = tau_derivative(spec.macro, self.b_grid, spec.L)
        self.b_lat = (spec.interp(b1), spec.interp(b2))
        self.dtau_lat = (spec.interp(self.dtau_grid[0]), spec.interp(self.dtau_grid[1]))
        self.a2_lat = None


def _correctors(spec: "AnsatzSpec", snap: _Snapshot) -> dict:
    """The snapshot's second-order correctors on the lattice, built on
    first use."""
    if snap.a2_lat is None:
        a2 = second_order_amplitudes(spec.p, spec.macro, snap.b_grid, snap.dy_grid, L=spec.L)
        snap.a2_lat = {iota: np.stack([spec.interp(v[0]), spec.interp(v[1])])
                       for iota, v in a2.items()}
    return snap.a2_lat


@dataclass
class AnsatzSpec:
    """Everything needed to sample the approximations on the lattice.

    The macroscopic domain length is tied to the lattice by L = eps*N;
    the envelope solution provides fields at any tau.
    """

    p: ChainParams
    eps: float
    N: int
    n: int
    macro: MacroSystem
    solution: object
    _fold: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for w in self.macro.waves:
            k = w.theta * self.N / (2.0 * np.pi)
            if abs(k - round(k)) > 1e-9:
                raise IncommensurateCarrier(
                    f"theta={w.theta} incommensurate with N={self.N}")
        # lattice wavenumber index m mod N of each grid mode m (fftfreq order,
        # Nyquist at m = -n/2); with N < n several modes alias to one index
        self._fold = np.rint(np.fft.fftfreq(self.n) * self.n).astype(int) % self.N

    @property
    def L(self) -> float:
        return self.eps * self.N

    def interp(self, grid_values: np.ndarray) -> np.ndarray:
        """Spectral interpolation from the macro grid to y = eps*j.

        The lattice is a uniform N-point grid over the same period, so the
        trigonometric interpolant there is the inverse FFT of the grid's
        coefficients folded onto the N lattice wavenumbers (a zero pad when
        N >= n).
        """
        pad = np.zeros(self.N, dtype=complex)
        np.add.at(pad, self._fold, np.fft.fft(grid_values))
        return np.fft.ifft(pad) * (self.N / self.n)

    def at_tau(self, tau: float) -> _Snapshot:
        snap = self._cache.get(tau)
        if snap is None:
            snap = _Snapshot(self, tau)
            if len(self._cache) >= 8:
                self._cache.pop(next(iter(self._cache)))
            self._cache[tau] = snap
        return snap


def _carrier_sum(spec: AnsatzSpec, terms, t: float, scale: float) -> np.ndarray:
    """2*scale*Re of the sum of a*exp(i(omega*t + theta*j)) over the
    (omega, theta, a) terms, where a holds the amplitudes of both
    components on the lattice."""
    j = np.arange(spec.N)
    u = np.zeros((spec.N, 2), dtype=complex)
    for omega, theta, a in terms:
        e = np.exp(1j * (omega * t + j * theta))
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
    w1, w2 = spec.macro.waves
    a2_lat = _correctors(spec, snap)
    terms = []
    for iota, om_v, th_v, weight in ansatz_carriers(spec.macro.mode, w1, w2):
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


def improved_velocity(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Time derivative of the improved approximation.

    The eps^3 term from the tau-dependence of the correctors is dropped;
    it sits below the eps^{3/2} initial-error budget.
    """
    snap = spec.at_tau(spec.eps * t)
    return first_order_velocity(spec, t) + _second_order_sum(spec, snap, t, True)


def initial_velocity(spec: AnsatzSpec) -> np.ndarray:
    return improved_velocity(spec, 0.0)


def initial_state(spec: AnsatzSpec, improved: bool = True) -> LatticeState:
    """Consistent initial data for the microscopic simulation."""
    if improved:
        return LatticeState(sample_improved(spec, 0.0), initial_velocity(spec), 0.0)
    return LatticeState(sample_first_order(spec, 0.0), first_order_velocity(spec, 0.0), 0.0)


def residual_norm(p: ChainParams, spec: AnsatzSpec, t: float, h0: float = 0.01) -> float:
    """Mass-weighted l2 norm of L(U) + M(U) - Udotdot for the improved
    ansatz U, with Udotdot by central difference at step h = eps^2*h0.

    The step keeps the finite-difference error below the eps^{5/2}
    signal being measured.
    """
    h = spec.eps ** 2 * h0
    if spec.eps * (t - h) < -1e-12:
        raise ValueError("amplitude trajectory unavailable at t-h < 0")
    tau0 = spec.eps * t
    snaps = [_Snapshot(spec, tau0 + spec.eps * dt,
                       fields=spec.solution.fields_local(tau0, spec.eps * dt))
             for dt in (-h, 0.0, h)]
    um, u0, up = (_sample_improved_snap(spec, s, t + dt)
                  for s, dt in zip(snaps, (-h, 0.0, h)))
    udd = (up - 2.0 * u0 + um) / (h * h)
    res = force(p, u0) - udd
    return norm_m(res, p)
