"""Time integration of the full nonlinear lattice plus modal diagnostics.

The integrator is the standard kick-drift-kick leapfrog (velocity
Verlet): second order, symplectic, time reversible.  model.force shares
one stretch pass between L and M and equals their sum bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, force


class SimulationDiverged(FloatingPointError):
    """NaN or overflow detected during integration."""


def omega_max(p: ChainParams) -> float:
    """Stability reference frequency sqrt(c2) (band-edge optical)."""
    return float(np.sqrt(p.c2))


def default_dt(p: ChainParams) -> float:
    return min(0.02, 0.1 / omega_max(p))


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    stride: int = 1

    def validate(self, p: ChainParams) -> None:
        if self.dt <= 0 or self.T < 0 or self.stride < 1:
            raise ValueError("need dt > 0, T >= 0, stride >= 1")
        if self.dt > 0.2 / omega_max(p) * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt} exceeds the stability margin 0.2/omega_max="
                f"{0.2 / omega_max(p):.4g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


def integrate(p: ChainParams, s0: LatticeState, cfg: SimConfig, observer=None) -> LatticeState:
    """Advance udotdot = L(u) + M(u) with fixed-step leapfrog.

    The observer, if given, is called as observer(t, state) at t=0, every
    ``stride`` steps, and at the final step.  The state passed to the
    observer is a live view; observers must not mutate it.
    """
    cfg.validate(p)
    pos = s0.pos.copy()
    vel = s0.vel.copy()
    t = s0.t
    state = LatticeState(pos, vel, t)
    if observer is not None:
        observer(t, state)
    acc = force(p, pos)
    dt = cfg.dt
    n_steps = cfg.n_steps
    kick = np.empty_like(vel)
    for k in range(1, n_steps + 1):
        vel += np.multiply(0.5 * dt, acc, out=kick)
        pos += np.multiply(dt, vel, out=kick)
        acc = force(p, pos)
        vel += np.multiply(0.5 * dt, acc, out=kick)
        t = s0.t + k * dt
        if k % cfg.stride == 0 or k == n_steps:
            if not np.all(np.isfinite(pos)):
                raise SimulationDiverged(f"non-finite positions at t={t}")
            state.t = t
            if observer is not None:
                observer(t, state)
    state.t = s0.t + n_steps * dt
    return state


def modal_mass(s: LatticeState, theta: float, component: int) -> float:
    """Discrete Fourier amplitude |N^{-1} sum_j u_{j,c} e^{-i j theta}|.

    ``component`` is 1 or 2; theta must be grid-commensurate
    (theta*N/2pi integer).
    """
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    N = s.N
    k = theta * N / (2.0 * np.pi)
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"theta={theta} is not commensurate with N={N}")
    j = np.arange(N)
    return float(np.abs(np.sum(s.pos[:, component - 1] * np.exp(-1j * j * theta)) / N))


def modal_masses(s: LatticeState, component: int) -> np.ndarray:
    """All N commensurate modal amplitudes at once (FFT)."""
    return np.abs(np.fft.fft(s.pos[:, component - 1]) / s.N)
