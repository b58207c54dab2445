"""Time integration of the full nonlinear lattice plus modal diagnostics.

The lattice steps by Blanes and Moan's optimized six-stage
Runge-Kutta-Nystrom splitting SRKN_6^b (Blanes and Moan, "Practical
symplectic partitioned Runge-Kutta and Runge-Kutta-Nystrom methods",
J. Comput. Appl. Math. 142 (2002) 313-330), a symmetric splitting of
``udotdot = f(u)`` into kicks (v += b*dt*f(x)) and drifts (x += a*dt*v),
so it is symplectic, time reversible and of order 4.  ``SCHEME`` holds its
kick weights b_1..b_7 and drift weights a_1..a_6, applied as kick, drift,
kick, ..., drift, kick, with one force call after each drift.  Its error
constant is far below that of Yoshida's triple jump of leapfrog steps, so
it runs a much longer step for the same error.

The last kick of a step uses the force of the step's last drift, which
the next step's first kick uses again, so every step ends synchronized
and a run of n steps of m drifts makes 1 + m*n force calls (m = 6).
``dt`` is always the length of the whole step.  ``default_dt`` and the
stepping loop read ``SCHEME`` when called, so any other symmetric
splitting put in its place (the tests' leapfrog weights) is capped and
stepped by the same code.

One loop steps any number of rings at once (``integrate_rings``;
``integrate`` is its one-ring case).  The rings are laid end to end in
one flat atom-order array (``model.Rings``), each between two ghost
atoms that the force refreshes from its own atoms, and ordered longest
run first, so that the rings still running are always a prefix of the
array.  Positions, velocities and accelerations are such arrays; each
kick and drift is one multiply and one add over the prefix, by per-atom
weights w*dt that carry each ring's own dt and are zero on the ghosts,
and the force writes into the integrator's acceleration array.  Each
ring's state and observer get ``(N, 2)`` views of its atoms
(``cell_pack``), not copies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, Rings, cell_pack, cell_unpack, force


class SimulationDiverged(FloatingPointError):
    """NaN or overflow in run ``run`` of ``integrate_rings`` at step ``k``, time ``t``."""

    def __init__(self, run: int, t: float, k: int):
        super().__init__(f"non-finite positions at t={t}")
        self.run, self.t, self.k = run, t, k


_A1, _A2 = 0.245298957184271, 0.604872665711080
_A3 = 0.5 - _A1 - _A2
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_B4 = 1.0 - 2.0 * (_B1 + _B2 + _B3)

# (kick weights, drift weights) of one step
SCHEME = ((_B1, _B2, _B3, _B4, _B3, _B2, _B1), (_A1, _A2, _A3, _A3, _A2, _A1))


def omega_max(p: ChainParams) -> float:
    """Stability reference frequency sqrt(c2) (band-edge optical)."""
    return float(np.sqrt(p.c2))


def default_dt(p: ChainParams) -> float:
    """Stability cap on dt: the step whose longest drift is 0.2/omega_max."""
    return 0.2 / omega_max(p) / max(abs(a) for a in SCHEME[1])


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    stride: int = 1

    def validate(self, p: ChainParams) -> None:
        if self.dt <= 0 or self.T < 0 or self.stride < 1:
            raise ValueError("need dt > 0, T >= 0, stride >= 1")
        # the longest drift is what must stay stable
        if self.dt > default_dt(p) * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt} exceeds the cap {default_dt(p):.4g} that keeps the longest "
                f"drift within the stability margin 0.2/omega_max={0.2 / omega_max(p):.4g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


def integrate(p: ChainParams, s0: LatticeState, cfg: SimConfig, observer=None) -> LatticeState:
    """Advance udotdot = L(u) + M(u) with fixed steps of ``SCHEME``.

    The observer, if given, is called as observer(t, state) at t=0, every
    ``stride`` steps, and at the final step.  The state passed to the
    observer, and the one returned, hold live (N, 2) views of the
    integrator's atom-order arrays; observers must not mutate them.  This
    is the one-ring case of ``integrate_rings``.
    """
    return integrate_rings([(p, s0, cfg, observer)])[0]


def integrate_rings(runs) -> list:
    """Advance several chains at once, each exactly as ``integrate`` would.

    ``runs`` is a sequence of (p, s0, cfg, observer); returns the final
    states in that order.  The rings are laid end to end in one ``Rings``
    layout, longest run first, so that the rings still running are always
    a prefix of it.  Every stage is then one kick or drift and one force
    call over that prefix, each ring's atoms weighted by its own w*dt,
    and a run whose longest ring takes n steps makes 1 + m*n force calls.
    Each ring is checked and observed at its own steps, the rings of one
    step longest run first.
    """
    for p, _, cfg, _ in runs:
        cfg.validate(p)
    rank = sorted(range(len(runs)), key=lambda i: -runs[i][2].n_steps)
    p, s0, cfg, observer = zip(*(runs[i] for i in rank))
    steps = [c.n_steps for c in cfg]
    rings = Rings(p, [s.N for s in s0])
    # flat atom-order positions, velocities, accelerations and the kick
    # and drift scratch, ghosts included; each ring's state and observer
    # see (N, 2) cell_pack views of its atoms
    x, v, acc, kick = (np.zeros(rings.size) for _ in range(4))
    states = []
    for s, atoms in zip(s0, rings.atoms):
        x[atoms], v[atoms] = cell_unpack(s.pos), cell_unpack(s.vel)
        states.append(LatticeState(cell_pack(x[atoms]), cell_pack(v[atoms]), s.t))

    def per_atom(ws):
        # each weight's w*dt on every ring's atoms and 0 on the ghosts,
        # one array per distinct weight
        rows = {}
        for w in ws:
            if w not in rows:
                rows[w] = np.zeros(rings.size)
                for c, atoms in zip(cfg, rings.atoms):
                    rows[w][atoms] = w * c.dt
        return [rows[w] for w in ws]
    kicks, drifts = map(per_atom, SCHEME)

    def prefix(m):
        # the arrays of the first m rings
        n = rings.ends[m - 1]
        return x[:n], v[:n], acc[:n], kick[:n], [k[:n] for k in kicks], [d[:n] for d in drifts]

    for f, s in zip(observer, states):
        if f is not None:
            f(s.t, s)
    m = len(runs)
    xs, vs, a, scratch, ks, ds = prefix(m)
    force(rings, xs, out=a)
    for k in range(1, steps[0] + 1):
        if steps[m - 1] < k:  # the rings that have ended drop off the end
            m = sum(n >= k for n in steps)
            xs, vs, a, scratch, ks, ds = prefix(m)
        vs += np.multiply(ks[0], a, out=scratch)
        for h, after in zip(ds, ks[1:]):
            xs += np.multiply(h, vs, out=scratch)
            force(rings, xs, out=a)
            vs += np.multiply(after, a, out=scratch)
        for r in range(m):
            if k % cfg[r].stride == 0 or k == steps[r]:
                t = s0[r].t + k * cfg[r].dt
                if not np.all(np.isfinite(x[rings.atoms[r]])):
                    raise SimulationDiverged(rank[r], t, k)
                states[r].t = t
                if observer[r] is not None:
                    observer[r](t, states[r])
    finals = [None] * len(runs)
    for i, s, start, c in zip(rank, states, s0, cfg):
        s.t = start.t + c.n_steps * c.dt
        finals[i] = s
    return finals


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

