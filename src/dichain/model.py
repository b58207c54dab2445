"""Diatomic chain model: parameters, forces, and the norms used by the
error-scaling experiments.

The chain consists of alternating atoms with nearest-neighbor bond forces
and stabilizing on-site forces.  Atoms are grouped into cells of two,
``u[j] = (u_{j,1}, u_{j,2})``; the equations of motion split into a linear
stencil ``L`` and the quadratic/cubic remainder ``M``:

    udotdot = L(u) + M(u)

with periodic boundary conditions in the cell index.

The forces are computed in atom order, the flat array of length 2N
``x = [u_{0,2}, u_{0,1}, u_{1,2}, u_{1,1}, ...]`` (``cell_unpack``): every
bond is ``x[k+1] - x[k]``, with one wrap-around bond closing the ring.  The
kernel runs on rings laid end to end in one such array (``Rings``), each
between two ghost atoms copied from its own ends, so that one subtract
over the array gives every ring's 2N + 1 stretches, the wrap-around bond
at both ends; an integrator steps all its rings in it at once, and one
ring given as ``(N, 2)`` cells is copied into a one-ring layout of its
own.  One bond pass takes the stretches once and writes L + M into one
array: every atom's bond force is d*(V1 + V2*sigma) of the difference d
and the sum sigma of its right and left stretches, plus
d*V3*(sigma^2 - s_right*s_left) only when a bond has k3 != 0, with
coefficients V2/W2 on even and V1/W1 on odd atoms, less its on-site
force.  The public functions take and return ``(N, 2)`` cells;
``cell_pack`` and ``cell_unpack`` convert between the two layouts
without copying where they can.  On a ``Rings`` layout ``force`` writes
into the caller's flat buffer (``out``), so an integrator allocates no
result per call.

``carrier_product_force`` takes the same stencil's k2 terms on two
carriers a*e^{i theta j}, the quadratic force on their product: row 1
stretches right by a2 e^{i theta} - a1 and left by a1 - a2, row 2 right by
a1 - a2 and left by a2 - a1 e^{-i theta}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StabilityError(ValueError):
    """Raised when chain parameters violate a stability inequality."""


@dataclass(frozen=True)
class PotentialCoeffs:
    """Force coefficients of one interaction or on-site potential.

    The force is F(x) = k1*x + k2*x**2 + k3*x**3; the potential is its
    antiderivative k1*x^2/2 + k2*x^3/3 + k3*x^4/4.  Higher terms are
    deliberately absent (they sit below the error budget of every
    experiment carried out here).
    """

    k1: float
    k2: float = 0.0
    k3: float = 0.0


@dataclass(frozen=True)
class ChainParams:
    """All chain coefficients plus the derived constants.

    V1/W1 act on the first atom of a cell, V2/W2 on the second.  The
    mass weights are normalized with v_ref = V2.k1 so that m_w = 1.
    """

    V1: PotentialCoeffs
    V2: PotentialCoeffs
    W1: PotentialCoeffs
    W2: PotentialCoeffs

    @property
    def c1(self) -> float:
        return 2.0 * self.V1.k1 + self.W1.k1

    @property
    def c2(self) -> float:
        return 2.0 * self.V2.k1 + self.W2.k1

    @property
    def v_ref(self) -> float:
        return self.V2.k1

    @property
    def M_w(self) -> float:
        return self.v_ref / self.V1.k1

    @property
    def m_w(self) -> float:
        return self.v_ref / self.V2.k1


def make_params(v1=(1.0, 0.0, 0.0), v2=(2.0, 0.0, 0.0), w1=(1.0, 0.0, 0.0),
                w2=(1.0, 0.0, 0.0)) -> ChainParams:
    """Convenience constructor from (k1, k2, k3) triples, checked by
    ``validate_params``."""
    p = ChainParams(PotentialCoeffs(*v1), PotentialCoeffs(*v2),
                    PotentialCoeffs(*w1), PotentialCoeffs(*w2))
    validate_params(p)
    return p


def validate_params(p: ChainParams) -> None:
    """Check every stability inequality; raise StabilityError naming the
    first violated one."""
    checks = [
        (p.V1.k1 > 0, "v_{1,1}>0"),
        (p.V2.k1 > 0, "v_{2,1}>0"),
        (p.W1.k1 > 0, "w_{1,1}>0"),
        (p.W2.k1 > 0, "w_{2,1}>0"),
        (4.0 * p.V1.k1 + p.W1.k1 > 0, "4v_{1,1}+w_{1,1}>0"),
        (4.0 * p.V2.k1 + p.W2.k1 > 0, "4v_{2,1}+w_{2,1}>0"),
        (p.c2 > p.c1, "c2>c1"),
        (p.c1 * p.c2 > 4.0 * p.V1.k1 * p.V2.k1, "c1*c2>4*v_{1,1}*v_{2,1}"),
    ]
    for ok, name in checks:
        if not ok:
            raise StabilityError(
                f"{name} violated (c1={p.c1}, c2={p.c2}, "
                f"v11={p.V1.k1}, v21={p.V2.k1}, w11={p.W1.k1}, w21={p.W2.k1})")


@dataclass
class LatticeState:
    """Positions and velocities of N cells, two atoms each."""

    pos: np.ndarray
    vel: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float)
        self.vel = np.asarray(self.vel, dtype=float)
        if self.pos.shape != self.vel.shape or self.pos.ndim != 2 or self.pos.shape[1] != 2:
            raise ValueError("pos and vel must both have shape (N, 2)")

    @classmethod
    def zeros(cls, N: int, t: float = 0.0) -> "LatticeState":
        return cls(np.zeros((N, 2)), np.zeros((N, 2)), t)

    @property
    def N(self) -> int:
        return self.pos.shape[0]


def cell_pack(x) -> np.ndarray:
    """View a flat atom array of length 2N as N cells, without copying:
    u_{j,1}=x_{2j+1}, u_{j,2}=x_{2j}."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % 2 != 0:
        raise ValueError(f"expected a flat array of even length, got shape {x.shape}")
    return x.reshape(-1, 2)[:, ::-1]


def cell_unpack(u) -> np.ndarray:
    """Inverse of cell_pack: the atom order [u_{0,2}, u_{0,1}, u_{1,2}, ...].
    A view when u is a cell_pack view, a copy otherwise."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 2:
        raise ValueError(f"expected shape (N, 2), got {u.shape}")
    return u[:, ::-1].reshape(-1)


class Rings:
    """Chains of cells laid end to end in one flat atom array, the layout
    the force kernel runs on.  Ring r's 2N_r atoms sit between two ghost
    atoms, copies of its last and its first atom, so that one subtract
    over the array gives every ring's 2N_r + 1 stretches; the stretch
    across the junction of two rings and the ghosts' own forces are never
    read.  Each ring has its own coefficients, zero on the ghosts; when a
    ring's bonds have k3 != 0, every ring takes the cubic term, by its own
    k3.
    ``atoms`` holds the rings' slices and ``ends`` the length of each
    prefix of whole rings; ``kernels`` maps each such length to its
    ``_bond_pass``, all bound once over one set of four scratch rows.
    """

    def __init__(self, params, cells):
        self.ends = np.cumsum([2 * n + 2 for n in cells]).tolist()
        starts = [0] + self.ends[:-1]
        # each ring's atoms, and its ghosts beside the atoms they copy
        self.atoms = [slice(o + 1, e - 1) for o, e in zip(starts, self.ends)]
        ghosts = np.array([g for o, e in zip(starts, self.ends) for g in (o, e - 1)])
        sources = np.array([s for o, e in zip(starts, self.ends) for s in (e - 2, o + 1)])
        self.size = self.ends[-1]
        cubic = any(p.V1.k3 or p.V2.k3 for p in params)
        # V.k1..k3 and W.k1..k3 per atom: V2/W2 on even atoms, V1/W1 on odd
        k = np.zeros((6, self.size))
        for p, atoms in zip(params, self.atoms):
            for coeffs, even, odd in ((k[:3, atoms], p.V2, p.V1), (k[3:, atoms], p.W2, p.W1)):
                coeffs[:, 0::2] = [[even.k1], [even.k2], [even.k3]]
                coeffs[:, 1::2] = [[odd.k1], [odd.k2], [odd.k3]]
        k.flags.writeable = False
        scratch = np.empty((4, self.size - 1))
        self.kernels = {end: _bond_pass(k[:, :end], cubic, ghosts[:2 * m],
                                        sources[:2 * m], scratch[:, :end - 1])
                        for m, end in enumerate(self.ends, 1)}


def _bond_pass(k, cubic: bool, ghosts, sources, scratch):
    """The force kernel of the first n slots of a ``Rings`` array, whose
    coefficient rows V.k1..k3, W.k1..k3 are k: a function of the slots y
    and a buffer ``out`` of n - 2 slots that copies the ``sources`` into
    the ``ghosts`` and writes L + M of slots 1 to n - 2 into ``out``.

    With s_R and s_L an atom's right and left stretches, d = s_R - s_L,
    sigma = s_R + s_L and q = s_R*s_L, its bond force
    k1*d + k2*(s_R^2 - s_L^2) + k3*(s_R^3 - s_L^3) is
    d*(V1 + V2*sigma + V3*(sigma^2 - q)), whose V3 term is taken only when
    ``cubic`` (a bond has k3 != 0); less its on-site force W1*x + _fnl(W, x).
    The n - 1 stretches and the three rows of n - 2 slots are the four rows
    of ``scratch``.
    """
    s, d, sigma, t = scratch[0], scratch[1, :-1], scratch[2, :-1], scratch[3, :-1]
    V1, V2, V3 = k[:3, 1:-1]
    W = PotentialCoeffs(*k[3:, 1:-1])
    right, left = s[1:], s[:-1]

    def apply(y, out):
        y[ghosts] = y[sources]
        np.subtract(y[1:], y[:-1], out=s)
        np.subtract(right, left, out=d)
        np.add(right, left, out=sigma)
        if cubic:
            np.multiply(right, left, out=t)
            np.subtract(np.multiply(sigma, sigma, out=out), t, out=t)
            np.multiply(V3, t, out=t)
        np.add(V1, np.multiply(V2, sigma, out=sigma), out=sigma)
        if cubic:
            np.add(sigma, t, out=sigma)
        np.multiply(d, sigma, out=out)
        x = y[1:-1]
        np.subtract(out, np.multiply(W.k1, x, out=t), out=out)
        return np.subtract(out, _fnl(W, x), out=out)
    return apply


def _fnl(c: PotentialCoeffs, x):
    return x * x * (c.k2 + c.k3 * x)


def carrier_product_force(p: ChainParams, a, theta_a: float, c, theta_c: float) -> np.ndarray:
    """The quadratic force on the product of the carriers a*e^{i theta_a j}
    and c*e^{i theta_c j} (a, c per-cell 2-vectors) as the (2, ...)
    amplitude of its carrier: row i is V_i.k2*(r_a r_c - l_a l_c) -
    W_i.k2*a_i c_i, of the carriers' right and left stretches."""
    def stretches(x, theta):
        inner = x[0] - x[1]
        return (x[1] * np.exp(1j * theta) - x[0], inner), (inner, x[1] - x[0] * np.exp(-1j * theta))
    rows = zip((p.V1, p.V2), (p.W1, p.W2), stretches(a, theta_a), stretches(c, theta_c), a, c)
    return np.array([v.k2 * (ra * rc - la * lc) - w.k2 * ai * ci
                     for v, w, (ra, la), (rc, lc), ai, ci in rows])


# (p, N, kernel, slots, cells) of the last one-ring force call: the kernel
# of a one-ring layout of N cells of p, its slot array and the (N, 2) view
# of that array's atoms, found again by identity, without hashing p
_last_ring = (None, 0, None, None, None)


def force(p, pos, out=None) -> np.ndarray:
    """Full right-hand side L(u) + M(u) from one bond pass, written in
    one array: each atom's bond force d*(V1 + V2*sigma [+ V3*(sigma^2 - q)])
    of its stretches' difference d, sum sigma and product q, less its
    on-site force (see ``_bond_pass``).

    With p a ChainParams, pos is the (N, 2) cells of one ring, copied
    between the ghosts of a one-ring layout, and the result is a fresh
    (N, 2) array of cells (a cell_pack view).  With p a ``Rings`` layout,
    pos is a prefix of whole rings of its flat atom array, ghosts
    included, whose ghosts the call refreshes, and the forces go into the
    same slots of ``out``, a flat array as long (a fresh one when not
    given); its first and last slot are not written.
    """
    global _last_ring
    if isinstance(p, Rings):
        if out is None:
            out = np.zeros(pos.size)
        p.kernels[pos.size](pos, out[1:-1])
        return out
    if out is not None:
        raise TypeError("force: out is taken only with a Rings layout")
    pos = np.asarray(pos, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"expected shape (N, 2), got {pos.shape}")
    last_p, last_n, kernel, y, cells = _last_ring
    if p is not last_p or len(pos) != last_n:
        rings = Rings((p,), (len(pos),))
        y = np.zeros(rings.size)
        kernel, cells = rings.kernels[rings.size], cell_pack(y[1:-1])
        _last_ring = (p, len(pos), kernel, y, cells)
    cells[...] = pos
    return cell_pack(kernel(y, np.empty(2 * len(pos))))


def _cell_bonds(pos):
    """(s_a, s_b) per cell: the bond u_{j+1,2} - u_{j,1} and the one
    inside the cell, u_{j,1} - u_{j,2}."""
    x = cell_unpack(pos)
    s_b, s_a = (np.roll(x, -1) - x).reshape(-1, 2).T
    return s_a, s_b


def energy_norm(s: LatticeState, p: ChainParams) -> float:
    """Energy norm ||(u, udot)||_Y preserved exactly by the linear flow.

    Position part: sum_j v_ref*(|u_{j+1,2}-u_{j,1}|^2 + |u_{j,1}-u_{j,2}|^2)
    + M_w*w11*|u_{j,1}|^2 + m_w*w21*|u_{j,2}|^2; velocity part weighted by
    (M_w, m_w).
    """
    return float(np.sqrt(energy_norm_sq_pos(s.pos, p) + norm_m_sq(s.vel, p)))


def energy_norm_sq_pos(pos, p: ChainParams) -> float:
    pos = np.asarray(pos)
    s_a, s_b = _cell_bonds(pos)
    e = p.v_ref * (np.abs(s_a) ** 2 + np.abs(s_b) ** 2)
    e = e + p.M_w * p.W1.k1 * np.abs(pos[:, 0]) ** 2
    e = e + p.m_w * p.W2.k1 * np.abs(pos[:, 1]) ** 2
    return float(np.sum(e))


def norm_m_sq(arr, p: ChainParams) -> float:
    """Squared mass-weighted l2 norm sum_j M_w*|a_{j,1}|^2 + m_w*|a_{j,2}|^2."""
    arr = np.asarray(arr)
    return float(p.M_w * np.sum(np.abs(arr[:, 0]) ** 2)
                 + p.m_w * np.sum(np.abs(arr[:, 1]) ** 2))


def norm_m(arr, p: ChainParams) -> float:
    return float(np.sqrt(norm_m_sq(arr, p)))


def norm_l2_pair(pos, vel) -> float:
    """Plain (l2)^4 norm of a (positions, velocities) pair."""
    return float(np.sqrt(np.sum(np.abs(pos) ** 2) + np.sum(np.abs(vel) ** 2)))
