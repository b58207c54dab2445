"""Time integration of the full nonlinear lattice plus modal diagnostics.

Both schemes are symmetric compositions of the kick-drift-kick leapfrog
(velocity Verlet), so both are symplectic and time reversible:

* order 2 is leapfrog itself, one force call per step;
* order 4 is Yoshida's triple jump (Yoshida 1990; Hairer, Lubich and
  Wanner, Geometric Numerical Integration, II.4): three leapfrog
  substeps of w1*dt, w0*dt, w1*dt with w1 = 1/(2 - 2^(1/3)) and
  w0 = 1 - 2*w1 < 0, three force calls per step.  Within a step the
  closing half kick of each substep h_i and the opening one of the next
  are one kick of 0.5*(h_i + h_{i+1}), so a step makes four kicks, not
  six; every step still ends with its closing half kick, so the state
  at each step end is synchronized.

``dt`` is always the length of the whole composed step.  The validation
experiments run order 4; leapfrog stays as the second-order reference.
The integrator keeps positions, velocities and accelerations as flat
atom-order arrays of length 2N (see dichain.model), so every kick and
drift is one ufunc over 2N values; force, the returned state and the
observer get ``(N, 2)`` views of them (``cell_pack``), not copies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, cell_pack, cell_unpack, force


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
    observer, and the one returned, hold live (N, 2) views of the
    integrator's atom-order arrays; observers must not mutate them.
    """
    cfg.validate(p)
    # flat atom-order copies; force, the state and the observer see them
    # as (N, 2) cell_pack views, while kick and drift run on 2N values
    x = cell_unpack(s0.pos).copy()
    v = cell_unpack(s0.vel).copy()
    pos = cell_pack(x)
    t = s0.t
    state = LatticeState(pos, cell_pack(v), t)
    if observer is not None:
        observer(t, state)
    acc = cell_unpack(force(p, pos))
    dt = cfg.dt
    n_steps = cfg.n_steps
    # drifts h_i and the kicks around them, a substep's closing half kick
    # and the next one's opening half folded into 0.5*(h_i + h_{i+1});
    # w = 1 gives leapfrog's dt and its two kicks of 0.5*dt
    drifts = [w * dt for w in SUBSTEPS[cfg.order]]
    kicks = [0.5 * (a + b) for a, b in zip([0.0, *drifts], [*drifts, 0.0])]
    kick = np.empty_like(v)
    for k in range(1, n_steps + 1):
        v += np.multiply(kicks[0], acc, out=kick)
        for h, after in zip(drifts, kicks[1:]):
            x += np.multiply(h, v, out=kick)
            acc = cell_unpack(force(p, pos))
            v += np.multiply(after, acc, out=kick)
        t = s0.t + k * dt
        if k % cfg.stride == 0 or k == n_steps:
            if not np.all(np.isfinite(x)):
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

