"""Time integration of the full nonlinear lattice plus modal diagnostics.

Both schemes are symmetric splittings of ``udotdot = f(u)`` into kicks
(v += b*dt*f(x)) and drifts (x += a*dt*v), so both are symplectic and
time reversible.  Each is one row of ``SCHEMES``: its kick weights
b_1..b_{m+1} and its drift weights a_1..a_m, applied as
kick, drift, kick, ..., drift, kick, with one force call after each drift:

* order 2 is leapfrog (velocity Verlet), kicks (1/2, 1/2) and one drift,
  one force call per step;
* order 4 is Blanes and Moan's optimized six-stage Runge-Kutta-Nystrom
  splitting SRKN_6^b (Blanes and Moan, "Practical symplectic partitioned
  Runge-Kutta and Runge-Kutta-Nystrom methods", J. Comput. Appl. Math.
  142 (2002) 313-330): seven kicks, six drifts and six force calls per
  step.  Its error constant is far below that of Yoshida's triple jump
  of leapfrog steps, so it runs a much longer step for the same error.

The last kick of a step uses the force of the step's last drift, which
the next step's first kick uses again, so every step ends synchronized
and a run of n steps makes 1 + m*n force calls.  ``dt`` is always the
length of the whole step.  Order 4 is the default and what the
validation experiments run; leapfrog (``order=2``) stays as the
second-order reference.  The integrator keeps positions, velocities and
accelerations as flat atom-order arrays of length 2N (see dichain.model),
so every kick and drift is one ufunc over 2N values; force, the returned
state and the observer get ``(N, 2)`` views of them (``cell_pack``), not
copies, and force writes each acceleration into the view it gets as
``out``, so a step allocates no array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, cell_pack, cell_unpack, force


class SimulationDiverged(FloatingPointError):
    """NaN or overflow detected during integration."""


_A1, _A2 = 0.245298957184271, 0.604872665711080
_A3 = 0.5 - _A1 - _A2
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_B4 = 1.0 - 2.0 * (_B1 + _B2 + _B3)

# (kick weights, drift weights) of one step, per order
SCHEMES = {
    2: ((0.5, 0.5), (1.0,)),
    4: ((_B1, _B2, _B3, _B4, _B3, _B2, _B1), (_A1, _A2, _A3, _A3, _A2, _A1)),
}


def omega_max(p: ChainParams) -> float:
    """Stability reference frequency sqrt(c2) (band-edge optical)."""
    return float(np.sqrt(p.c2))


def largest_drift(order: int) -> float:
    """max |a_i|: the longest drift of one step, in units of dt."""
    return max(abs(a) for a in SCHEMES[order][1])


def default_dt(p: ChainParams, order: int) -> float:
    """Stability cap on dt: the step whose longest drift is 0.2/omega_max."""
    return 0.2 / omega_max(p) / largest_drift(order)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    stride: int = 1
    order: int = 4

    def validate(self, p: ChainParams) -> None:
        if self.dt <= 0 or self.T < 0 or self.stride < 1:
            raise ValueError("need dt > 0, T >= 0, stride >= 1")
        if self.order not in SCHEMES:
            raise ValueError(f"order={self.order}: must be 2 or 4")
        # the longest drift is what must stay stable
        if self.dt > default_dt(p, self.order) * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt} (longest drift {largest_drift(self.order) * self.dt:.4g}) "
                f"exceeds the stability margin 0.2/omega_max={0.2 / omega_max(p):.4g}")

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
    # flat atom-order copies and acceleration buffer; force, the state and
    # the observer see them as (N, 2) cell_pack views, while kick and drift
    # run on 2N values
    x = cell_unpack(s0.pos).copy()
    v = cell_unpack(s0.vel).copy()
    pos = cell_pack(x)
    t = s0.t
    state = LatticeState(pos, cell_pack(v), t)
    if observer is not None:
        observer(t, state)
    acc = np.empty_like(x)
    acc_cells = cell_pack(acc)
    force(p, pos, out=acc_cells)
    dt = cfg.dt
    n_steps = cfg.n_steps
    kicks, drifts = ([w * dt for w in ws] for ws in SCHEMES[cfg.order])
    kick = np.empty_like(v)
    for k in range(1, n_steps + 1):
        v += np.multiply(kicks[0], acc, out=kick)
        for h, after in zip(drifts, kicks[1:]):
            x += np.multiply(h, v, out=kick)
            force(p, pos, out=acc_cells)
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

