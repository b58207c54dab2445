"""Self-interaction resonance analysis.

A carrier wave (omega, theta) regenerates itself at (2 omega, 2 theta);
whether that point again satisfies the dispersion relation decides
between plain transport of the envelope and coupled amplitude dynamics.
This module measures the acoustic->optical resonance defect, solves the
explicit one-parameter family for an exact resonance at prescribed
wavenumber, and verifies numerically that the remaining second- and
third-order resonances cannot occur: the regime of a wave pair is one
flag, ``is_resonant_pair``, asked only by ``amplitude.build_macro_system``.
"""
from __future__ import annotations

import numpy as np

from .model import ChainParams, make_params
from .spectrum import ACOUSTIC, OPTICAL, Wave, omega

GRID_SIZE = 2048  # theta grid of the margin scans
SCAN_SIZE = 1024  # c grid of the acoustic->acoustic scan
# the family's nonlinear coefficients: k2 and k3 of V1, V2, W1 and W2
NL_KEYS = ("v12", "v13", "v22", "v23", "w12", "w13", "w22", "w23")


class DomainError(ValueError):
    """A family-ratio solution failed its dispersion-level verification."""


def resonance_defect(p: ChainParams, theta):
    """h(theta) = 2 omega_-(theta) - omega_+(2 theta)."""
    return 2.0 * omega(p, ACOUSTIC, theta) - omega(p, OPTICAL, 2.0 * np.asarray(theta))


def family_params(gamma: float, b: float, nl: dict = None) -> ChainParams:
    """The explicit parameter family v11=1, v21=gamma, w11=w21=b, with
    the nonlinear coefficients ``nl`` ({"v12": ..., "w23": ...}, zero if absent)."""
    q = {k: float(v) for k, v in (nl or {}).items()}
    return make_params(v1=(1.0, q.get("v12", 0.0), q.get("v13", 0.0)),
                       v2=(gamma, q.get("v22", 0.0), q.get("v23", 0.0)),
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


def optical_closure_margin(p: ChainParams) -> float:
    """min over theta of the distance of 2 omega_+(theta) from both
    branches at 2 theta; strictly positive means an optical wave cannot
    generate any wave by self-interaction."""
    thetas = np.linspace(0.0, np.pi, GRID_SIZE)
    two_opt = 2.0 * omega(p, OPTICAL, thetas)
    m = np.minimum(np.abs(two_opt - omega(p, OPTICAL, 2.0 * thetas)),
                   np.abs(two_opt - omega(p, ACOUSTIC, 2.0 * thetas)))
    return float(m.min())


def third_order_margin(p: ChainParams) -> float:
    """min over theta of omega_-(theta) + omega_+(2 theta) - omega_+(3 theta);
    strictly positive rules out this third-order resonance."""
    thetas = np.linspace(0.0, np.pi, GRID_SIZE)
    m = omega(p, ACOUSTIC, thetas) + omega(p, OPTICAL, 2.0 * thetas) - omega(p, OPTICAL, 3.0 * thetas)
    return float(m.min())


def grid_max(f, xs) -> float:
    """The maximum of f on [xs[0], xs[-1]]: the largest f(xs) refined by a
    golden-section search on the grid cells either side of it, down to a
    bracket of 1e-14.  f takes an array and a float; the search assumes f
    unimodal on those two cells."""
    fx = f(xs)
    i = int(np.argmax(fx))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    r = (np.sqrt(5.0) - 1.0) / 2.0
    # a fixed count of steps, each narrowing the bracket by r, to 1e-14: it
    # ends even where rounding keeps the bracket from narrowing
    steps = int(np.ceil(np.log(1e-14 / (hi - lo)) / np.log(r))) if hi > lo else 0
    for _ in range(steps):
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        if f(a) >= f(b):
            hi = b
        else:
            lo = a
    return float(max(fx[i], f((lo + hi) / 2.0)))


def acoustic_acoustic_scan(gamma: float):
    """Scan the acoustic->acoustic resonance obstruction over the family.

    Returns (c_e, max_g) where g~(c) = 8 delta - 9 + 16c + (2c-1)^2
    - 8 sqrt(delta+c) sqrt(delta+(2c-1)^2) and c_e is the lower end of
    the interval on which the pre-squaring right-hand side is
    nonnegative.  max_g is the maximum of g~ on a SCAN_SIZE grid over
    [c_e, 1], refined by ``grid_max``'s golden-section search.  max_g <= 0
    (up to roundoff) certifies that no acoustic->acoustic resonance
    exists in the family; the maximum sits at c=1 where g~ vanishes
    identically.
    """
    if gamma <= 1.0:
        raise ValueError("family requires gamma > 1")
    delta = (gamma - 1.0) ** 2 / (4.0 * gamma)
    c_e = max(0.0, (5.0 - np.sqrt(15.0 * delta + 24.0)) / 2.0)

    def g(c):
        return (8.0 * delta - 9.0 + 16.0 * c + (2.0 * c - 1.0) ** 2
                - 8.0 * np.sqrt(delta + c) * np.sqrt(delta + (2.0 * c - 1.0) ** 2))

    return float(c_e), grid_max(g, np.linspace(c_e, 1.0, SCAN_SIZE))


def wrap_theta(theta: float) -> float:
    """Wrap a wavenumber to (-pi, pi]."""
    t = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if t <= -np.pi + 1e-15:
        t = np.pi
    return float(t)


def is_resonant_pair(w1: Wave, w2: Wave) -> bool:
    """Whether (w1, w2) is an acoustic->optical pair with omega2 = 2 omega1
    and theta2 = 2 theta1 mod 2pi, each to 1e-10."""
    return (w1.branch == ACOUSTIC and w2.branch == OPTICAL
            and abs(w2.omega - 2.0 * w1.omega) <= 1e-10
            and abs(wrap_theta(w2.theta - 2.0 * w1.theta)) <= 1e-10)
