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
bond is ``x[k+1] - x[k]``, with one wrap-around bond closing the ring.  One
bond pass takes the 2N + 1 stretches, their squares and, only when a bond
has k3 != 0, their cubes, each once; every atom's bond force is then
``k*(s_right - s_left)`` of those powers, with coefficients V2/W2 on even
and V1/W1 on odd atoms, less its on-site force.  The public functions take
and return ``(N, 2)`` cells; ``cell_pack`` and ``cell_unpack`` convert
between the two layouts without copying where they can.  ``force`` also
writes into a caller's ``(N, 2)`` buffer (``out``), so an integrator
allocates nothing per call.

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


def _bond_pass(p: ChainParams, n: int):
    """The force kernel of n atoms of p: a function of the atoms x, in atom
    order, returning L and M in reused buffers.  The n + 1 stretches s are
    squared, and cubed only when a bond has k3 != 0, once each; one subtract
    and one multiply give every atom's k*(s_right - s_left) of each power.
    Coefficients (V2/W2 on even atoms, V1/W1 on odd) and buffers are bound
    once; ``_bond_forces`` keeps the last one built.
    """
    def alternate(even: PotentialCoeffs, odd: PotentialCoeffs) -> np.ndarray:
        k = np.empty((3, n))
        k[:, 0::2] = [[even.k1], [even.k2], [even.k3]]
        k[:, 1::2] = [[odd.k1], [odd.k2], [odd.k3]]
        k.flags.writeable = False
        return k
    rows = 3 if p.V1.k3 or p.V2.k3 else 2
    V, W = alternate(p.V2, p.V1)[:rows], PotentialCoeffs(*alternate(p.W2, p.W1))
    powers, terms = np.empty((rows, n + 1)), np.empty((rows, n))
    s, inner, right, left = powers[0], powers[0, 1:-1], powers[:, 1:], powers[:, :-1]
    lin, nl = np.empty(n), np.empty(n)

    def apply(x):
        np.subtract(x[1:], x[:-1], out=inner)
        if n:
            s[0] = s[-1] = x[0] - x[-1]
        for k in range(1, rows):
            np.multiply(powers[k - 1], s, out=powers[k])
        np.multiply(V, np.subtract(right, left, out=terms), out=terms)
        np.subtract(terms[0], np.multiply(W.k1, x, out=lin), out=lin)
        np.subtract(terms[1], _fnl(W, x), out=nl)
        if rows == 3:
            np.add(nl, terms[2], out=nl)
        return lin, nl
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


# (p, n, kernel) of the last _bond_forces call, found again by identity,
# without hashing p: every run integrates or samples one chain at a time,
# thousands of calls each
_last_kernel = (None, 0, None)


def _bond_forces(p: ChainParams, pos):
    """(L, M) of the cells pos, in atom order, as reused buffers."""
    global _last_kernel
    x = cell_unpack(pos)
    last_p, last_n, apply = _last_kernel
    if p is not last_p or x.size != last_n:
        apply = _bond_pass(p, x.size)
        _last_kernel = (p, x.size, apply)
    return apply(x)


def force(p: ChainParams, pos, out=None) -> np.ndarray:
    """Full right-hand side L(u) + M(u) from one bond pass over the 2N
    atoms: the stretches, their squares and (when a bond has k3 != 0) cubes
    are taken once each, and an atom's bond force is k*(s_right - s_left)
    of them.  Takes and returns (N, 2) cells: ``out``, an (N, 2) float array
    such as a cell_pack view of the caller's atom-order buffer, when given,
    else a cell_pack view of a fresh array; the sum's bits are the same."""
    lin, nl = _bond_forces(p, pos)
    if out is None:
        return cell_pack(np.add(lin, nl))
    atoms = out[:, ::-1]  # out in atom order: contiguous for a cell_pack view
    np.add(lin.reshape(atoms.shape), nl.reshape(atoms.shape), out=atoms)
    return out


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
