"""Self-interaction resonance analysis.

A carrier wave (omega, theta) regenerates itself at (2 omega, 2 theta);
whether that point again satisfies the dispersion relation decides
between plain transport of the envelope and coupled amplitude dynamics.
This module locates acoustic->optical resonances, solves the explicit
one-parameter family for an exact resonance at prescribed wavenumber,
and verifies numerically that the remaining second- and third-order
resonances cannot occur.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .model import ChainParams, make_params
from .spectrum import ACOUSTIC, OPTICAL, Wave, omega

ROOT_TOL = 1e-12
GRID_SIZE = 2048
# the family's nonlinear coefficients: k2 and k3 of V1, V2, W1 and W2
NL_KEYS = ("v12", "v13", "v22", "v23", "w12", "w13", "w22", "w23")


class DomainError(ValueError):
    """A family-ratio solution failed its dispersion-level verification."""


class NotResonant(ValueError):
    """Raised when a wave pair does not form an exact resonant pair."""


@dataclass(frozen=True)
class ReducedCoords:
    """Substituted coordinates in which the resonance conditions are scalar
    equations: c = (cos theta + 1)/2, f = 16 v11 v21, d1 = (c1+c2)^2/f,
    d2 = (c1-c2)^2/f."""

    c: float
    d1: float
    d2: float
    f: float

    def omega_sq(self, branch: str) -> float:
        s = 1.0 if branch == OPTICAL else -1.0
        return 0.5 * np.sqrt(self.f) * (np.sqrt(self.d1) + s * np.sqrt(self.d2 + self.c))


def reduced_coords(p: ChainParams, theta: float) -> ReducedCoords:
    f = 16.0 * p.V1.k1 * p.V2.k1
    return ReducedCoords(
        c=float((np.cos(theta) + 1.0) / 2.0),
        d1=float((p.c1 + p.c2) ** 2 / f),
        d2=float((p.c1 - p.c2) ** 2 / f),
        f=float(f),
    )


def resonance_defect(p: ChainParams, theta):
    """h(theta) = 2 omega_-(theta) - omega_+(2 theta)."""
    return 2.0 * omega(p, ACOUSTIC, theta) - omega(p, OPTICAL, 2.0 * np.asarray(theta))


def find_acoustic_optical_resonance(p: ChainParams, n_grid: int = GRID_SIZE):
    """All theta in [0, pi] with 2 omega_-(theta) = omega_+(2 theta).

    Sign changes of the defect on a uniform grid are refined by bisection
    until |h| <= 1e-12; grid points already below the tolerance (tangent
    roots such as theta=0 in the exactly-resonant family) are kept as is.
    Negative roots are the mirror images and are not returned.
    """
    thetas = np.linspace(0.0, np.pi, n_grid)
    h = resonance_defect(p, thetas)
    roots = [float(t) for t, hv in zip(thetas, h) if abs(hv) <= ROOT_TOL]
    for i in range(n_grid - 1):
        if abs(h[i]) <= ROOT_TOL or abs(h[i + 1]) <= ROOT_TOL:
            continue
        if h[i] * h[i + 1] < 0.0:
            root = brentq(lambda t: resonance_defect(p, t), thetas[i], thetas[i + 1],
                          xtol=1e-15, rtol=8.9e-16)
            if abs(resonance_defect(p, root)) <= ROOT_TOL:
                roots.append(float(root))
    roots.sort()
    dedup = []
    for r in roots:
        if not dedup or r - dedup[-1] > 1e-9:
            dedup.append(r)
    return dedup


def family_params(gamma: float, b: float, a: float = 1.0, nl: dict = None) -> ChainParams:
    """The explicit parameter family v11=a, v21=gamma*a, w11=w21=b, with
    the nonlinear coefficients ``nl`` ({"v12": ..., "w23": ...}, zero if absent)."""
    q = {k: float(v) for k, v in (nl or {}).items()}
    return make_params(v1=(a, q.get("v12", 0.0), q.get("v13", 0.0)),
                       v2=(gamma * a, q.get("v22", 0.0), q.get("v23", 0.0)),
                       w1=(b, q.get("w12", 0.0), q.get("w13", 0.0)),
                       w2=(b, q.get("w22", 0.0), q.get("w23", 0.0)))


def solve_family_ratio(gamma: float, c: float):
    """Ratio b/a making 2 omega_-(theta(c)) = omega_+(2 theta(c)) exact in
    the family v11=a, v21=gamma*a, w11=w21=b.

    Solves 9*d1(r) = 17*delta + 16c + (2c-1)^2 + 8*sqrt(delta+c)*
    sqrt(delta+(2c-1)^2) with the direct expansion
    d1(r) = ((1+gamma)+r)^2/(4*gamma), delta = (gamma-1)^2/(4*gamma).
    Returns the positive root, or None when no positive root exists.
    Every returned value is verified against the dispersion relation.
    """
    if gamma <= 1.0:
        raise ValueError("family requires gamma > 1")
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    delta = (gamma - 1.0) ** 2 / (4.0 * gamma)
    rhs = (17.0 * delta + 16.0 * c + (2.0 * c - 1.0) ** 2
           + 8.0 * np.sqrt(delta + c) * np.sqrt(delta + (2.0 * c - 1.0) ** 2))
    disc = 4.0 * gamma * rhs / 9.0
    if disc < 0.0:
        return None
    r = -(1.0 + gamma) + np.sqrt(disc)
    if r <= 0.0:
        return None
    theta = float(np.arccos(2.0 * c - 1.0))
    p = family_params(gamma, r)
    defect = abs(resonance_defect(p, theta))
    if defect > 1e-9:
        raise DomainError(
            f"family ratio {r} fails the dispersion oracle: |2w_-(th)-w_+(2th)|={defect:.3e}")
    return float(r)


def optical_closure_margin(p: ChainParams, n_grid: int = GRID_SIZE) -> float:
    """min over theta of the distance of 2 omega_+(theta) from both
    branches at 2 theta; strictly positive means an optical wave cannot
    generate any wave by self-interaction."""
    thetas = np.linspace(0.0, np.pi, n_grid)
    two_opt = 2.0 * omega(p, OPTICAL, thetas)
    m = np.minimum(np.abs(two_opt - omega(p, OPTICAL, 2.0 * thetas)),
                   np.abs(two_opt - omega(p, ACOUSTIC, 2.0 * thetas)))
    return float(m.min())


def third_order_margin(p: ChainParams, n_grid: int = GRID_SIZE) -> float:
    """min over theta of omega_-(theta) + omega_+(2 theta) - omega_+(3 theta);
    strictly positive rules out this third-order resonance."""
    thetas = np.linspace(0.0, np.pi, n_grid)
    m = omega(p, ACOUSTIC, thetas) + omega(p, OPTICAL, 2.0 * thetas) - omega(p, OPTICAL, 3.0 * thetas)
    return float(m.min())


def acoustic_acoustic_scan(gamma: float, n_grid: int = 1024):
    """Scan the acoustic->acoustic resonance obstruction over the family.

    Returns (c_e, max_g) where g~(c) = 8 delta - 9 + 16c + (2c-1)^2
    - 8 sqrt(delta+c) sqrt(delta+(2c-1)^2) and c_e is the lower end of
    the interval on which the pre-squaring right-hand side is
    nonnegative.  max_g <= 0 (up to roundoff) certifies that no
    acoustic->acoustic resonance exists in the family; the maximum sits
    at c=1 where g~ vanishes identically.
    """
    if gamma <= 1.0:
        raise ValueError("family requires gamma > 1")
    delta = (gamma - 1.0) ** 2 / (4.0 * gamma)
    c_e = max(0.0, (5.0 - np.sqrt(15.0 * delta + 24.0)) / 2.0)

    def g(c):
        return (8.0 * delta - 9.0 + 16.0 * c + (2.0 * c - 1.0) ** 2
                - 8.0 * np.sqrt(delta + c) * np.sqrt(delta + (2.0 * c - 1.0) ** 2))

    cs = np.linspace(c_e, 1.0, n_grid)
    gv = g(cs)
    i = int(np.argmax(gv))
    lo = cs[max(i - 1, 0)]
    hi = cs[min(i + 1, n_grid - 1)]
    best = gv[i]
    if hi > lo:
        res = minimize_scalar(lambda c: -g(c), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        best = max(best, -res.fun)
    return float(c_e), float(best)


def wrap_theta(theta: float) -> float:
    """Wrap a wavenumber to (-pi, pi]."""
    t = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if t <= -np.pi + 1e-15:
        t = np.pi
    return float(t)


def resonant_pair_defect(w1: Wave, w2: Wave) -> str:
    """Why (w1, w2) is not an acoustic->optical pair with omega2 = 2 omega1
    and theta2 = 2 theta1 mod 2pi; the empty string when it is one."""
    if w1.branch != ACOUSTIC or w2.branch != OPTICAL:
        return "resonant pair must be acoustic (w1) and optical (w2)"
    if abs(w2.omega - 2.0 * w1.omega) > 1e-10:
        return f"omega2={w2.omega} is not 2*omega1={2 * w1.omega}"
    if abs(wrap_theta(w2.theta - 2.0 * w1.theta)) > 1e-10:
        return f"theta2={w2.theta} is not 2*theta1 mod 2pi"
    return ""
