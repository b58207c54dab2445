"""Macroscopic amplitude (envelope) machinery.

First-order envelopes ride the carriers on macroscopic variables
(tau, y) = (eps*t, eps*j).  Away from resonance each envelope is simply
transported at its group velocity; at an exact acoustic->optical
resonance the two envelopes couple through quadratic source terms.  The
second-order correctors cancel the quadratic defect of the leading
ansatz and are obtained pointwise by inverting the dispersion matrix on
the product carriers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .model import ChainParams
from .resonance import NONRESONANT, NotResonant, _tol_res, resonant_pair_defect
from .spectrum import ACOUSTIC, Wave, dispersion_matrix, group_velocity

RESONANT_GENERIC = "ResonantGeneric"
RESONANT_HALF_PI = "ResonantHalfPi"
RESONANT_PI = "ResonantPi"

RESONANT_MODES = (RESONANT_GENERIC, RESONANT_HALF_PI, RESONANT_PI)


class NearResonance(ValueError):
    """A corrector would divide by a nearly singular dispersion matrix."""


# ---------------------------------------------------------------------------
# periodic grid helpers


def grid_points(L: float, n: int) -> np.ndarray:
    return np.arange(n) * (L / n)


def wavenumbers(L: float, n: int) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)


def spectral_shift(values: np.ndarray, L: float, dist: float) -> np.ndarray:
    """Evaluate the trigonometric interpolant at y + dist (exact advection)."""
    kappa = wavenumbers(L, len(values))
    return np.fft.ifft(np.fft.fft(values) * np.exp(1j * kappa * dist))

def spectral_derivative(values: np.ndarray, L: float) -> np.ndarray:
    n = len(values)
    kappa = wavenumbers(L, n)
    hat = np.fft.fft(values) * (1j * kappa)
    if n % 2 == 0:
        hat[n // 2] = 0.0  # unpaired Nyquist mode carries no derivative
    return np.fft.ifft(hat)


def sech_envelope(L: float, n: int, a0: float, nu: float) -> np.ndarray:
    return (a0 / np.cosh(nu * (grid_points(L, n) - L / 2.0))).astype(complex)


# ---------------------------------------------------------------------------
# coupling coefficients


@dataclass(frozen=True)
class Coupling:
    """Raw coefficients (d1, d2, d) and the envelope-equation prefactors
    (k1, k2) of the coupled system

        dB1/dtau - v1 dB1/dy = k1 * conj(B1) * B2
        dB2/dtau - v2 dB2/dy = k2 * B1^2

    in the resonant regime ``mode`` whose formulas produced them.
    """

    d1: complex
    d2: complex
    d: Optional[complex]
    k1: complex
    k2: complex
    mode: str


def coupling_coefficients(p: ChainParams, w1: Wave, w2: Wave) -> Coupling:
    """Quadratic coupling coefficients of the resonant envelope system.

    Three regimes: generic theta1; theta1 = +-pi/2 (the generated wave
    sits at the band edge theta2 = +-pi); theta1 = +-pi (the generated
    wave sits at theta2 = 0 and both group velocities vanish).
    """
    why = resonant_pair_defect(w1, w2)
    if why:
        raise NotResonant(why)
    v12, v22 = p.V1.k2, p.V2.k2
    w12, w22 = p.W1.k2, p.W2.k2
    om1, om2 = w1.omega, w2.omega
    th1 = w1.theta
    s1 = om1 * om1 - p.c1, om1 * om1 - p.c2
    s2 = om2 * om2 - p.c1, om2 * om2 - p.c2

    def pref1(d1):
        return d1 / (1j * om1) * s1[1] / (s1[0] + s1[1])

    def pref2(d2):
        return d2 / (2j * om2) * s2[1] / (s2[0] + s2[1])

    if w1.degenerate:  # theta1 = +-pi, omega1 = sqrt(c1)
        d1 = d2 = complex(-w12)
        return Coupling(d1, d2, None, pref1(d1), pref2(d2), RESONANT_PI)

    e1 = np.exp(1j * th1)
    if abs(e1 * e1 + 1.0) < 1e-8:  # theta1 = +-pi/2, theta2 = +-pi
        sg = 1.0 if np.sin(th1) > 0 else -1.0
        rho1 = w1.rho
        d1 = ((v22 / p.V2.k1 - sg * 1j * w22 / s1[1]) * s1[0]
              + v12 * (rho1 * (1.0 + sg * 1j) + 2.0))
        k2 = (2.0 * v22 * (1.0 + rho1 * (1.0 + sg * 1j)) - w22 * rho1 ** 2) / (2j * om2)
        return Coupling(complex(d1), complex(k2 * 2j * om2), None, pref1(d1), complex(k2),
                        RESONANT_HALF_PI)

    rho1, rho2 = w1.rho, w2.rho
    cr1 = np.conj(rho1)
    e2 = np.exp(1j * w2.theta)
    d = (p.V1.k1 * p.V2.k1 ** 2 * (2.0 + 4.0 * np.cos(th1) + 2.0 * np.cos(w2.theta))
         / (s1[1] ** 2 * s2[1]))
    d1 = (d * v22 * ((np.conj(e1) - 1.0) / (cr1 * rho2)
                     + (np.conj(e2) - 1.0) / rho2
                     + (e1 - 1.0) / cr1)
          + v12 * (cr1 * rho2 * (e1 - 1.0) + rho2 * (e2 - 1.0) + cr1 * (np.conj(e1) - 1.0))
          + d * w22 - w12)
    d2 = (d * v22 * ((np.conj(e2) - 1.0) / rho1 ** 2 + 2.0 * (np.conj(e1) - 1.0) / rho1)
          + v12 * (rho1 ** 2 * (e2 - 1.0) + 2.0 * rho1 * (e1 - 1.0))
          + d * w22 - w12)
    return Coupling(complex(d1), complex(d2), complex(d), pref1(d1), pref2(d2),
                    RESONANT_GENERIC)


@dataclass(frozen=True)
class MacroSystem:
    """Envelope dynamics descriptor: regime, carriers, group velocities,
    and the coupling prefactors (zero when non-resonant)."""

    mode: str
    waves: tuple
    velocities: tuple
    k1: complex = 0.0
    k2: complex = 0.0

    @property
    def resonant(self) -> bool:
        return self.mode in RESONANT_MODES


def build_macro_system(p: ChainParams, w1: Wave, w2: Wave) -> MacroSystem:
    """Classify the wave pair and assemble the envelope system."""
    vels = (float(group_velocity(p, w1.branch, w1.theta)),
            float(group_velocity(p, w2.branch, w2.theta)))
    if resonant_pair_defect(w1, w2):
        return MacroSystem(NONRESONANT, (w1, w2), vels)
    cpl = coupling_coefficients(p, w1, w2)
    return MacroSystem(cpl.mode, (w1, w2), vels, cpl.k1, cpl.k2)


# ---------------------------------------------------------------------------
# quadratic source terms on the product carriers


def compute_K(iota, a1, a2, p: ChainParams, theta1: float, theta2: float):
    """Pointwise quadratic source K_iota as a pair of components.

    ``a1``/``a2`` are the 2-component first-order amplitudes (scalars or
    arrays).  Upper sign row i=1, lower sign row i=2, second index wraps.
    """
    v2 = (p.V1.k2, p.V2.k2)
    w2 = (p.W1.k2, p.W2.k2)
    out = []
    for i in (0, 1):
        s = 1.0 if i == 0 else -1.0
        j = 1 - i
        E = lambda ang: np.exp(s * 1j * ang) - 1.0
        if iota == (1, 1) or iota == (2, 2):
            a, th = (a1, theta1) if iota == (1, 1) else (a2, theta2)
            val = (s * v2[i] * (a[j] ** 2 * E(2.0 * th) - 2.0 * a[0] * a[1] * E(th))
                   - w2[i] * a[i] ** 2)
        elif iota == (1, 2):
            val = (s * 2.0 * v2[i] * (a1[j] * a2[j] * E(theta1 + theta2)
                                      - a1[i] * a2[j] * E(theta2)
                                      - a1[j] * a2[i] * E(theta1))
                   - 2.0 * w2[i] * a1[i] * a2[i])
        elif iota == (1, -2):
            c2j = np.conj(a2[j])
            c2i = np.conj(a2[i])
            val = (s * 2.0 * v2[i] * (a1[j] * c2j * E(theta1 - theta2)
                                      - a1[i] * c2j * (np.exp(-s * 1j * theta2) - 1.0)
                                      - a1[j] * c2i * E(theta1))
                   - 2.0 * w2[i] * a1[i] * c2i)
        elif iota == (1, -1):
            val = 0.0
            for a, th in ((a1, theta1), (a2, theta2)):
                val = val + (-s * 2.0 * v2[i] * np.conj(a[i]) * a[j] * E(th)
                             - w2[i] * np.abs(a[i]) ** 2)
        else:
            raise ValueError(f"unknown source index {iota!r}")
        out.append(val)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# envelope evolution


def _source_rhs(sys, b1, b2):
    return sys.k1 * np.conj(b1) * b2, sys.k2 * b1 * b1


def tau_derivative(sys: MacroSystem, fields, L: float):
    """Governing right-hand side: dB/dtau = v dB/dy + source."""
    b1, b2 = fields
    db1 = sys.velocities[0] * spectral_derivative(b1, L)
    db2 = sys.velocities[1] * spectral_derivative(b2, L)
    if sys.resonant:
        s1, s2 = _source_rhs(sys, b1, b2)
        db1, db2 = db1 + s1, db2 + s2
    return db1, db2


def _advect_pair(sys, fields, L, dt):
    b1, b2 = fields
    if sys.velocities[0] != 0.0:
        b1 = spectral_shift(b1, L, sys.velocities[0] * dt)
    if sys.velocities[1] != 0.0:
        b2 = spectral_shift(b2, L, sys.velocities[1] * dt)
    return b1, b2


def _rk4_sources(sys, fields, dt):
    b1, b2 = fields
    k1a, k2a = _source_rhs(sys, b1, b2)
    k1b, k2b = _source_rhs(sys, b1 + 0.5 * dt * k1a, b2 + 0.5 * dt * k2a)
    k1c, k2c = _source_rhs(sys, b1 + 0.5 * dt * k1b, b2 + 0.5 * dt * k2b)
    k1d, k2d = _source_rhs(sys, b1 + dt * k1c, b2 + dt * k2c)
    return (b1 + dt / 6.0 * (k1a + 2 * k1b + 2 * k1c + k1d),
            b2 + dt / 6.0 * (k2a + 2 * k2b + 2 * k2c + k2d))


def strang_step(sys: MacroSystem, fields, L: float, dtau: float):
    """One Strang step: exact half advection, quadratic sources via a
    classical 4-stage step, exact half advection."""
    fields = _advect_pair(sys, fields, L, 0.5 * dtau)
    if sys.resonant:
        fields = _rk4_sources(sys, fields, dtau)
    fields = _advect_pair(sys, fields, L, 0.5 * dtau)
    return fields


# ---------------------------------------------------------------------------
# time-continuous solution providers (evaluable at arbitrary tau)


class _SolutionBase:
    """Common local-evaluation hook.

    ``fields_local(tau0, offset)`` must be smooth in the offset: the
    residual measurement divides second differences by offset^2, which
    would amplify any interpolation noise of a dense global solution.
    The default takes one exact-advection + quadratic-source step from a
    cached base state.
    """

    def fields_local(self, tau0: float, offset: float):
        base = getattr(self, "_local_base", None)
        if base is None or base[0] != tau0:
            base = (tau0, self.fields(tau0))
            self._local_base = base
        if offset == 0.0:
            return base[1]
        return strang_step(self.sys, base[1], self.L, offset)


class TransportSolution(_SolutionBase):
    """Exact solution of the uncoupled transport regime."""

    def __init__(self, sys: MacroSystem, fields0, L: float):
        if sys.resonant:
            raise ValueError("TransportSolution only applies to the non-resonant regime")
        self.sys = sys
        self.L = L
        self._f0 = (np.asarray(fields0[0], dtype=complex),
                    np.asarray(fields0[1], dtype=complex))

    def fields(self, tau: float):
        return _advect_pair(self.sys, self._f0, self.L, tau)

    def fields_local(self, tau0: float, offset: float):
        return self.fields(tau0 + offset)


class ODEReferenceSolution(_SolutionBase):
    """Dense high-accuracy reference for resonant systems with vanishing
    group velocities (the envelope equations reduce to a pointwise ODE)."""

    def __init__(self, sys: MacroSystem, fields0, L: float, tau_max: float):
        if not sys.resonant:
            raise ValueError("reference ODE applies to resonant systems")
        if max(abs(v) for v in sys.velocities) > 1e-12:
            raise ValueError("reference ODE requires zero group velocities")
        self.sys = sys
        self.L = L
        f0 = (np.asarray(fields0[0], dtype=complex), np.asarray(fields0[1], dtype=complex))
        n = len(f0[0])
        self._n = n

        def rhs(_t, z):
            b1 = z[:n] + 1j * z[n:2 * n]
            b2 = z[2 * n:3 * n] + 1j * z[3 * n:]
            d1, d2 = _source_rhs(sys, b1, b2)
            return np.concatenate([d1.real, d1.imag, d2.real, d2.imag])

        z0 = np.concatenate([f0[0].real, f0[0].imag, f0[1].real, f0[1].imag])
        self._sol = solve_ivp(rhs, (0.0, tau_max * 1.000001 + 1e-9), z0,
                              method="DOP853", dense_output=True, rtol=1e-12, atol=1e-12)
        if not self._sol.success:
            raise FloatingPointError(f"reference integration failed: {self._sol.message}")

    def fields(self, tau: float):
        n = self._n
        z = self._sol.sol(tau)
        return z[:n] + 1j * z[n:2 * n], z[2 * n:3 * n] + 1j * z[3 * n:]


class StrangSolution(_SolutionBase):
    """Fixed-step Strang trajectory held as a cursor: the initial state
    and the state at the last step reached.  A later tau steps on from the
    cursor, an earlier one restarts from the initial state; a tau between
    step times takes one partial step from the step before it.

    Non-resonant systems are only advected, so each step is the exact flow.
    """

    def __init__(self, sys: MacroSystem, fields0, L: float, dtau: float = 1e-3):
        self.sys = sys
        self.L = L
        self.dtau = dtau
        self._f0 = (np.asarray(fields0[0], dtype=complex),
                    np.asarray(fields0[1], dtype=complex))
        # the cursor: step _k and its state, kept as a one-element list
        # (perfbench/tracing.py reads its length)
        self._k, self._states = 0, [self._f0]

    def _extend(self, k):
        """Move the cursor to step k."""
        k0, state = self._k, self._states[0]
        if k < k0:
            k0, state = 0, self._f0
        for _ in range(k - k0):
            state = strang_step(self.sys, state, self.L, self.dtau)
        # a non-finite state stays non-finite, so the last one tells
        if k > k0 and not all(np.isfinite(b).all() for b in state):
            raise FloatingPointError(f"envelope evolution diverged before tau={k * self.dtau}")
        self._k, self._states = k, [state]

    def fields(self, tau: float):
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        k = int(np.floor(tau / self.dtau))
        if (k + 1) * self.dtau <= tau:  # tau/dtau rounded down past an exact step time
            k += 1
        self._extend(k)
        state = self._states[0]
        rem = tau - k * self.dtau
        if rem > 1e-14:
            state = strang_step(self.sys, state, self.L, rem)
        return state


def make_solution(sys: MacroSystem, fields0, L: float, tau_max: float, dtau: float = 1e-3):
    """Pick the best evaluable-at-any-tau solution for the regime."""
    if not sys.resonant:
        return TransportSolution(sys, fields0, L)
    if max(abs(v) for v in sys.velocities) <= 1e-12:
        return ODEReferenceSolution(sys, fields0, L, tau_max)
    return StrangSolution(sys, fields0, L, dtau)


# ---------------------------------------------------------------------------
# second-order correctors


def corrector_carriers(mode: str, w1: Wave, w2: Wave):
    """Product-carrier table: (iota, Omega, Theta, equation weight)."""
    om1, th1 = w1.omega, w1.theta
    om2, th2 = w2.omega, w2.theta
    if mode == NONRESONANT:
        return [((1, 1), 2 * om1, 2 * th1, 1.0),
                ((2, 2), 2 * om2, 2 * th2, 1.0),
                ((1, 2), om1 + om2, th1 + th2, 1.0),
                ((1, -2), om1 - om2, th1 - th2, 1.0),
                ((1, -1), 0.0, 0.0, 0.5)]
    return [((1, 2), om1 + om2, th1 + th2, 1.0),
            ((2, 2), 2 * om2, 2 * th2, 1.0),
            ((1, -1), 0.0, 0.0, 0.5)]


def ansatz_carriers(mode: str, w1: Wave, w2: Wave):
    """All improved-ansatz carriers including the wave carriers themselves."""
    table = [(1, w1.omega, w1.theta, 1.0), (2, w2.omega, w2.theta, 1.0)]
    table.extend(corrector_carriers(mode, w1, w2))
    return table


def _solve_product_corrector(p, om_v, th_v, K, weight):
    H = dispersion_matrix(p, om_v, th_v)
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    if abs(det) < _tol_res(om_v):
        raise NearResonance(
            f"|det H({om_v:.4g}, {th_v:.4g})| = {abs(det):.3e} below tolerance")
    k1, k2 = K
    a1 = -(H[1, 1] * k1 - H[0, 1] * k2) / det / weight
    a2 = -(-H[1, 0] * k1 + H[0, 0] * k2) / det / weight
    return np.stack([np.broadcast_to(a1, np.shape(k1)).astype(complex),
                     np.broadcast_to(a2, np.shape(k1)).astype(complex)])


def _wave_corrector(p, wave: Wave, b, dy_b, dtau_b, k_extra):
    """Corrector riding the wave's own carrier.

    Gauge: the free component vanishes; the determined one solves the
    non-degenerate row of the order-eps^2 bracket (with the quadratic
    extra source k_extra in resonant regimes).
    """
    n = len(b)
    out = np.zeros((2, n), dtype=complex)
    kx = k_extra if k_extra is not None else (np.zeros(n, complex), np.zeros(n, complex))
    if wave.degenerate:
        if wave.branch == ACOUSTIC:
            out[1] = (p.V2.k1 * dy_b + kx[1]) / (p.c2 - p.c1)
        else:
            out[0] = (p.V1.k1 * dy_b - kx[0]) / (p.c2 - p.c1)
        return out
    eit = np.exp(1j * wave.theta)
    P = p.V1.k1 * (eit + 1.0)
    d_tau_a1 = dtau_b
    d_y_a2 = -wave.rho * dy_b
    out[1] = (2j * wave.omega * d_tau_a1 - p.V1.k1 * eit * d_y_a2 - kx[0]) / P
    return out


def second_order_amplitudes(p: ChainParams, macro: MacroSystem, fields, dy_fields,
                            L: float) -> dict:
    """All corrector fields A_{2,iota} for the given first-order envelopes,
    keyed by iota, each a (2, n) complex array.

    ``fields`` and ``dy_fields`` hold the scalar envelopes and their
    spectral y-derivatives; the tau-derivatives are taken from the
    governing macroscopic equations, never from time differencing.
    """
    w1, w2 = macro.waves
    b1 = np.asarray(fields[0], dtype=complex)
    b2 = np.asarray(fields[1], dtype=complex)
    dtau_b1, dtau_b2 = tau_derivative(macro, (b1, b2), L)
    a1 = w1.amplitude_vector(b1)
    a2 = w2.amplitude_vector(b2)

    entries = {}
    for iota, om_v, th_v, weight in corrector_carriers(macro.mode, w1, w2):
        K = compute_K(iota, a1, a2, p, w1.theta, w2.theta)
        entries[iota] = _solve_product_corrector(p, om_v, th_v, K, weight)

    if macro.resonant:
        kx1 = tuple(np.conj(c) for c in compute_K((1, -2), a1, a2, p, w1.theta, w2.theta))
        kx2 = compute_K((1, 1), a1, a2, p, w1.theta, w2.theta)
    else:
        kx1 = kx2 = None
    entries[1] = _wave_corrector(p, w1, b1, dy_fields[0], dtau_b1, kx1)
    entries[2] = _wave_corrector(p, w2, b2, dy_fields[1], dtau_b2, kx2)
    return entries
