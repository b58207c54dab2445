"""Time integration of the full nonlinear lattice plus modal diagnostics.

Both schemes are symmetric compositions of the kick-drift-kick leapfrog
(velocity Verlet), so both are symplectic and time reversible:

* order 2 is leapfrog itself, one force call per step;
* order 4 is Yoshida's triple jump (Yoshida 1990; Hairer, Lubich and
  Wanner, Geometric Numerical Integration, II.4): three leapfrog
  substeps of w1*dt, w0*dt, w1*dt with w1 = 1/(2 - 2^(1/3)) and
  w0 = 1 - 2*w1 < 0, three force calls per step.

``dt`` is always the length of the whole composed step.  The validation
experiments run order 4; leapfrog stays as the second-order reference.
model.force shares one stretch pass between L and M and equals their sum
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, force


class SimulationDiverged(FloatingPointError):
    """NaN or overflow detected during integration."""


_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))

# leapfrog substep weights of one step, per order
SUBSTEPS = {2: (1.0,), 4: (_W1, 1.0 - 2.0 * _W1, _W1)}


def omega_max(p: ChainParams) -> float:
    """Stability reference frequency sqrt(c2) (band-edge optical)."""
    return float(np.sqrt(p.c2))


def largest_substep(order: int) -> float:
    """max |w_i|: the longest leapfrog substep of one step, in units of dt."""
    return max(abs(w) for w in SUBSTEPS[order])


def default_dt(p: ChainParams, order: int) -> float:
    """Step cap: 0.02, and half the stability limit for the longest substep."""
    return min(0.02, 0.1 / omega_max(p) / largest_substep(order))


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    stride: int = 1
    order: int = 2

    def validate(self, p: ChainParams) -> None:
        if self.dt <= 0 or self.T < 0 or self.stride < 1:
            raise ValueError("need dt > 0, T >= 0, stride >= 1")
        if self.order not in SUBSTEPS:
            raise ValueError(f"order={self.order}: must be 2 or 4")
        # the largest leapfrog substep is what must stay stable
        h = largest_substep(self.order) * self.dt
        if h > 0.2 / omega_max(p) * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt} (largest substep {h:.4g}) exceeds the stability "
                f"margin 0.2/omega_max={0.2 / omega_max(p):.4g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


def integrate(p: ChainParams, s0: LatticeState, cfg: SimConfig, observer=None) -> LatticeState:
    """Advance udotdot = L(u) + M(u) with fixed steps of order ``cfg.order``.

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
    # (half kick, drift) per substep; w = 1 gives leapfrog's 0.5*dt and dt
    substeps = [(0.5 * h, h) for h in (w * dt for w in SUBSTEPS[cfg.order])]
    kick = np.empty_like(vel)
    for k in range(1, n_steps + 1):
        for half, h in substeps:
            vel += np.multiply(half, acc, out=kick)
            pos += np.multiply(h, vel, out=kick)
            acc = force(p, pos)
            vel += np.multiply(half, acc, out=kick)
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
