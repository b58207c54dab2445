"""Microscopic sampling of the two-scale approximations.

Builds lattice positions/velocities from envelope fields (first-order
and improved), produces consistent initial data for the full
simulation, and measures the equation defect of the improved ansatz
numerically.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import amplitude as amp
from .amplitude import MacroSystem, ansatz_carriers, second_order_amplitudes, tau_derivative
from .model import ChainParams, LatticeState, force, norm_m


class IncommensurateCarrier(ValueError):
    """Carrier wavenumber does not fit the periodic lattice."""


class _Snapshot:
    """Envelope data at one macroscopic time, interpolated to the lattice.

    Second-order correctors are built lazily; convergence sampling only
    needs the first-order fields at most times.
    """

    def __init__(self, spec: "AnsatzSpec", tau: float, fields=None):
        self.tau = tau
        # weak: spec._cache holds its snapshots, and a strong back-reference
        # would leave each spec (and its N x n matrix) to the cycle collector
        self._spec = weakref.proxy(spec)
        b1, b2 = spec.solution.fields(tau) if fields is None else fields
        self.b_grid = (b1, b2)
        self.dy_grid = (amp.spectral_derivative(b1, spec.L),
                        amp.spectral_derivative(b2, spec.L))
        self.dtau_grid = tau_derivative(spec.macro, self.b_grid, spec.L)
        self.b_lat = (spec.interp(b1), spec.interp(b2))
        self.dtau_lat = (spec.interp(self.dtau_grid[0]), spec.interp(self.dtau_grid[1]))
        self._a2_lat = None

    @property
    def a2_lat(self):
        if self._a2_lat is None:
            spec = self._spec
            a2 = second_order_amplitudes(spec.p, spec.macro, self.b_grid,
                                         self.dy_grid, L=spec.L)
            self._a2_lat = {iota: np.stack([spec.interp(v[0]), spec.interp(v[1])])
                            for iota, v in a2.entries.items()}
        return self._a2_lat


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
    _V: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        for w in self.macro.waves:
            k = w.theta * self.N / (2.0 * np.pi)
            if abs(k - round(k)) > 1e-9:
                raise IncommensurateCarrier(
                    f"theta={w.theta} incommensurate with N={self.N}")
        self._V = amp.eval_matrix(self.L, self.n, self.lattice_y())

    @property
    def L(self) -> float:
        return self.eps * self.N

    def lattice_y(self) -> np.ndarray:
        return self.eps * np.arange(self.N)

    def interp(self, grid_values: np.ndarray) -> np.ndarray:
        """Spectral interpolation from the macro grid to y = eps*j."""
        return self._V @ np.fft.fft(grid_values)

    def at_tau(self, tau: float) -> _Snapshot:
        snap = self._cache.get(tau)
        if snap is None:
            snap = _Snapshot(self, tau)
            if len(self._cache) >= 8:
                self._cache.pop(next(iter(self._cache)))
            self._cache[tau] = snap
        return snap


def _carrier(spec: AnsatzSpec, omega: float, theta: float, t: float) -> np.ndarray:
    j = np.arange(spec.N)
    return np.exp(1j * (omega * t + j * theta))


def sample_first_order(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Positions of the leading approximation at lattice time t."""
    snap = spec.at_tau(spec.eps * t)
    u = np.zeros((spec.N, 2), dtype=complex)
    for idx, wave in enumerate(spec.macro.waves):
        av = wave.amplitude_vector(snap.b_lat[idx])
        e = _carrier(spec, wave.omega, wave.theta, t)
        u[:, 0] += av[0] * e
        u[:, 1] += av[1] * e
    return 2.0 * spec.eps * u.real


def first_order_velocity(spec: AnsatzSpec, t: float) -> np.ndarray:
    """Exact time derivative of the leading approximation."""
    snap = spec.at_tau(spec.eps * t)
    u = np.zeros((spec.N, 2), dtype=complex)
    for idx, wave in enumerate(spec.macro.waves):
        coef = 1j * wave.omega * snap.b_lat[idx] + spec.eps * snap.dtau_lat[idx]
        av = wave.amplitude_vector(coef)
        e = _carrier(spec, wave.omega, wave.theta, t)
        u[:, 0] += av[0] * e
        u[:, 1] += av[1] * e
    return 2.0 * spec.eps * u.real


def _second_order_sum(spec: AnsatzSpec, snap: _Snapshot, t: float, time_derivative: bool):
    w1, w2 = spec.macro.waves
    u = np.zeros((spec.N, 2), dtype=complex)
    for iota, om_v, th_v, weight in ansatz_carriers(spec.macro.mode, w1, w2):
        a2 = snap.a2_lat[iota]
        e = _carrier(spec, om_v, th_v, t)
        c = weight * (1j * om_v if time_derivative else 1.0)
        if c == 0.0:
            continue
        u[:, 0] += c * a2[0] * e
        u[:, 1] += c * a2[1] * e
    return 2.0 * spec.eps ** 2 * u.real


def _sample_first_order_snap(spec: AnsatzSpec, snap: _Snapshot, t: float) -> np.ndarray:
    u = np.zeros((spec.N, 2), dtype=complex)
    for idx, wave in enumerate(spec.macro.waves):
        av = wave.amplitude_vector(snap.b_lat[idx])
        e = _carrier(spec, wave.omega, wave.theta, t)
        u[:, 0] += av[0] * e
        u[:, 1] += av[1] * e
    return 2.0 * spec.eps * u.real


def _sample_improved_snap(spec: AnsatzSpec, snap: _Snapshot, t: float) -> np.ndarray:
    return _sample_first_order_snap(spec, snap, t) + _second_order_sum(spec, snap, t, False)


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
