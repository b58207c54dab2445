"""Macroscopic amplitude (envelope) machinery.

First-order envelopes ride the carriers on macroscopic variables
(tau, y) = (eps*t, eps*j).  Away from resonance each envelope is simply
transported at its group velocity; at an exact acoustic->optical
resonance the two envelopes couple through quadratic source terms.  Each
coupling is the solvability condition of its wave carrier: the
quadratic source on that carrier, projected on the wave's polarization,
one formula for every resonant regime.  The second-order correctors
cancel the quadratic defect of the leading ansatz and are obtained
pointwise by inverting the dispersion matrix on the product carriers.

A Strang step advects the envelopes as one stack: the rows whose group
velocity is nonzero share one FFT round trip per half step, with their
phases exp(i kappa v dt) cached per (velocities, L, n, dt), and the
RK4 source stage updates both rows at once.  Every resonant pair is
stepped by Yoshida's triple jump of three Strang steps (the weights
``TRIPLE_JUMP``): its fixed step
``STRANG_DTAU`` = 0.025 errs less than single Strang steps 25 times
shorter.  A pair at rest (the c = 1 family) takes the same steps with no
advection: three Yoshida-weighted RK4 source steps each.  A
``StrangSolution`` keeps the states of its first ``KEEP_STEPS`` steps, so
a later query for an earlier tau steps on from a kept state instead of
from tau = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .model import ChainParams
from .resonance import NotResonant, resonant_pair_defect
from .spectrum import ACOUSTIC, Wave, dispersion_matrix, group_velocity

NONRESONANT = "NonResonant"
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


@lru_cache(maxsize=16)
def _shift_phases(velocities: tuple, L: float, n: int, dt: float) -> np.ndarray:
    """exp(i kappa v dt), one row per nonzero velocity: multiplying the
    Fourier coefficients by it evaluates the trigonometric interpolant at
    y + v dt (exact advection).  Read-only; a step reuses it every call."""
    kappa = wavenumbers(L, n)
    phase = np.array([np.exp(1j * kappa * (v * dt)) for v in velocities if v != 0.0])
    phase.flags.writeable = False
    return phase


def spectral_derivative(values: np.ndarray, L: float) -> np.ndarray:
    """d/dy of each row of ``values`` along its last axis (a single grid
    or a stack of them), one FFT round trip for the whole stack."""
    n = np.shape(values)[-1]
    kappa = wavenumbers(L, n)
    hat = np.fft.fft(values) * (1j * kappa)
    if n % 2 == 0:
        hat[..., n // 2] = 0.0  # unpaired Nyquist mode carries no derivative
    return np.fft.ifft(hat)


def sech_envelope(L: float, n: int, a0: float, nu: float) -> np.ndarray:
    return (a0 / np.cosh(nu * (grid_points(L, n) - L / 2.0))).astype(complex)


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
# couplings, projected from the wave-carrier sources


def _wave_sources(p: ChainParams, w1: Wave, w2: Wave, a1, a2):
    """The resonant quadratic sources on the two wave carriers for the
    first-order amplitudes ``a1``/``a2``: conj(K_(1,-2)) on w1's carrier
    (conj(B1) B2) and K_(1,1) on w2's (B1^2), each a pair of components."""
    kx1 = tuple(np.conj(c) for c in compute_K((1, -2), a1, a2, p, w1.theta, w2.theta))
    kx2 = compute_K((1, 1), a1, a2, p, w1.theta, w2.theta)
    return kx1, kx2


def coupling_coefficients(p: ChainParams, w1: Wave, w2: Wave):
    """The prefactors (k1, k2) of the resonant envelope system

        dB1/dtau - v1 dB1/dy = k1 * conj(B1) * B2
        dB2/dtau - v2 dB2/dy = k2 * B1^2

    from the solvability condition of each wave carrier: its source S_w at
    unit envelopes projected on its polarization r_w,
    k_w = <r_w, S_w> / (2i omega_w <r_w, r_w>), in the mass-weighted product
    <a, b> = M_w conj(a0) b0 + m_w conj(a1) b1 of ``model.norm_m``.  A
    band-edge wave's r_w is a unit vector, so no regime needs a branch.
    """
    why = resonant_pair_defect(w1, w2)
    if why:
        raise NotResonant(why)
    r1, r2 = w1.amplitude_vector(1 + 0j), w2.amplitude_vector(1 + 0j)

    def dot(a, b):
        return p.M_w * np.conj(a[0]) * b[0] + p.m_w * np.conj(a[1]) * b[1]

    return tuple(complex(dot(r, s) / (2j * w.omega * dot(r, r)))
                 for w, r, s in zip((w1, w2), (r1, r2), _wave_sources(p, w1, w2, r1, r2)))


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


# a group velocity this small is zero: at the band edge theta2 = pi the
# optical one is -5.9e-17 in floating point.  Such an envelope is not
# advected, so a Strang step of a resonant pair with both at rest only
# integrates its sources.
VELOCITY_ZERO = 1e-12


def build_macro_system(p: ChainParams, w1: Wave, w2: Wave) -> MacroSystem:
    """Classify the wave pair and assemble the envelope system."""
    vels = tuple(0.0 if abs(v) <= VELOCITY_ZERO else v
                 for v in (float(group_velocity(p, w.branch, w.theta)) for w in (w1, w2)))
    if resonant_pair_defect(w1, w2):
        return MacroSystem(NONRESONANT, (w1, w2), vels)
    # theta1 = +-pi: both waves at rest; theta1 = +-pi/2: w2 at the band edge
    mode = (RESONANT_PI if w1.degenerate else RESONANT_HALF_PI if w2.degenerate
            else RESONANT_GENERIC)
    return MacroSystem(mode, (w1, w2), vels, *coupling_coefficients(p, w1, w2))


# ---------------------------------------------------------------------------
# envelope evolution


def _source_rhs(sys, fields):
    """The quadratic sources (k1 conj(B1) B2, k2 B1^2) as one (2, ...) array."""
    b1, b2 = fields
    out = np.empty((2,) + np.shape(b1), dtype=complex)
    np.multiply(sys.k1 * np.conj(b1), b2, out=out[0])
    np.multiply(sys.k2 * b1, b1, out=out[1])
    return out


def tau_derivative(sys: MacroSystem, fields, dy_fields):
    """Governing right-hand side: dB/dtau = v dB/dy + source, from the
    envelopes and their y-derivatives."""
    db1 = sys.velocities[0] * dy_fields[0]
    db2 = sys.velocities[1] * dy_fields[1]
    if sys.resonant:
        s1, s2 = _source_rhs(sys, fields)
        db1, db2 = db1 + s1, db2 + s2
    return db1, db2


def _advect_pair(sys, fields, L, dt):
    """Exact advection of each envelope by v*dt: one FFT round trip over
    the stack of the rows whose group velocity is nonzero; a row with
    zero velocity comes back untouched."""
    b = list(fields)
    moving = [i for i, v in enumerate(sys.velocities) if v != 0.0]
    if moving:
        phase = _shift_phases(sys.velocities, L, len(b[0]), dt)
        shifted = np.fft.ifft(np.fft.fft([b[i] for i in moving]) * phase)
        for i, row in zip(moving, shifted):
            b[i] = row
    return tuple(b)


def _rk4_sources(sys, fields, dt):
    b = np.array(fields)
    ka = _source_rhs(sys, b)
    kb = _source_rhs(sys, b + 0.5 * dt * ka)
    kc = _source_rhs(sys, b + 0.5 * dt * kb)
    kd = _source_rhs(sys, b + dt * kc)
    return b + dt / 6.0 * (ka + 2 * kb + 2 * kc + kd)


def strang_step(sys: MacroSystem, fields, L: float, dtau: float):
    """One Strang step: exact half advection, quadratic sources via a
    classical 4-stage step, exact half advection."""
    fields = _advect_pair(sys, fields, L, 0.5 * dtau)
    if sys.resonant:
        fields = _rk4_sources(sys, fields, dtau)
    fields = _advect_pair(sys, fields, L, 0.5 * dtau)
    return fields


_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))

# Yoshida's triple-jump weights (w1, w0, w1), w0 = 1 - 2*w1 < 0
TRIPLE_JUMP = (_W1, 1.0 - 2.0 * _W1, _W1)


def composed_step(sys: MacroSystem, fields, L: float, dtau: float):
    """One order-4 step: Strang steps of w*dtau for Yoshida's triple-jump
    weights w (Yoshida 1990; McLachlan and Quispel, Acta Numerica 2002)."""
    for w in TRIPLE_JUMP:
        fields = strang_step(sys, fields, L, w * dtau)
    return fields


# ---------------------------------------------------------------------------
# time-continuous solution providers (evaluable at arbitrary tau)


class TransportSolution:
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


class ODEReferenceSolution:
    """Dense DOP853 solution of a resonant system with vanishing group
    velocities (the envelope equations reduce to a pointwise ODE), solved
    over [0, tau_max] at once.  The tests' reference for StrangSolution: no
    experiment builds it.  It lives here, not under tests/, because the
    benchmark's tracer (perfbench/tracing.py) patches its ``fields``."""

    def __init__(self, sys: MacroSystem, fields0, tau_max: float):
        from scipy.integrate import solve_ivp
        if not sys.resonant:
            raise ValueError("reference ODE applies to resonant systems")
        if any(sys.velocities):
            raise ValueError("reference ODE requires zero group velocities")
        f0 = (np.asarray(fields0[0], dtype=complex), np.asarray(fields0[1], dtype=complex))
        n = len(f0[0])
        self._n = n

        def rhs(_t, z):
            b1 = z[:n] + 1j * z[n:2 * n]
            b2 = z[2 * n:3 * n] + 1j * z[3 * n:]
            d1, d2 = _source_rhs(sys, (b1, b2))
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


# the composed step of a resonant pair's StrangSolution: on the
# c = 0.5 family (n = 256, to tau = 1.5) it errs by 1e-10 relative, where
# single Strang steps of 1e-3 err by 2e-9; at rest (c = 1, n = 128, to
# tau = 1) it is within 2e-12 of DOP853
STRANG_DTAU = 0.025


# the first KEEP_STEPS steps a StrangSolution reaches stay kept: every
# shipped config reaches at most 42 (n = 256: 8 KB a state)
KEEP_STEPS = 64


class StrangSolution:
    """Fixed-step trajectory of composed (order-4) Strang steps.  It keeps
    the state of every step it reaches up to step ``KEEP_STEPS``, and a
    cursor: the state at the last step reached.  A tau steps on from the
    latest kept state or cursor at or before its step; a tau between step
    times takes one partial composed step from the step before it.  Every
    state is the same composition of steps from the initial one, so the
    values returned do not depend on the order of the queries.
    """

    def __init__(self, sys: MacroSystem, fields0, L: float, dtau: float):
        self.sys = sys
        self.L = L
        self.dtau = dtau
        f0 = (np.asarray(fields0[0], dtype=complex), np.asarray(fields0[1], dtype=complex))
        # _states[k] is the state at step k (perfbench/tracing.py counts
        # its growth); the cursor is step _k and its state
        self._states = [f0]
        self._k, self._state = 0, f0

    def _extend(self, k):
        """Move the cursor to step k."""
        kept = self._states
        if k < len(kept):
            self._k, self._state = k, kept[k]
            return
        k0, state = ((self._k, self._state) if len(kept) <= self._k <= k
                     else (len(kept) - 1, kept[-1]))
        new = []
        for j in range(k0 + 1, k + 1):
            state = composed_step(self.sys, state, self.L, self.dtau)
            if j <= KEEP_STEPS:
                new.append(state)
        # a non-finite state stays non-finite, so the last one tells, and
        # no diverged state is kept
        if k > k0 and not all(np.isfinite(b).all() for b in state):
            raise FloatingPointError(f"envelope evolution diverged before tau={k * self.dtau}")
        kept.extend(new)
        self._k, self._state = k, state

    def fields(self, tau: float):
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        k = int(np.floor(tau / self.dtau))
        if (k + 1) * self.dtau <= tau:  # tau/dtau rounded down past an exact step time
            k += 1
        self._extend(k)
        state = self._state
        rem = tau - k * self.dtau
        if rem > 1e-14:
            state = composed_step(self.sys, state, self.L, rem)
        return state


def make_solution(sys: MacroSystem, fields0, L: float, dtau: float = STRANG_DTAU):
    """The evaluable-at-any-tau solution of the regime: exact transport
    when non-resonant, else a StrangSolution stepping by ``dtau``."""
    if not sys.resonant:
        return TransportSolution(sys, fields0, L)
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
    return ([(1, w1.omega, w1.theta, 1.0), (2, w2.omega, w2.theta, 1.0)]
            + corrector_carriers(mode, w1, w2))


def _tol_res(omega_val: float) -> float:
    """Smallest |det H(omega, theta)| a corrector may divide by."""
    return 1e-6 * (1.0 + omega_val ** 4)


@lru_cache(maxsize=64)
def _corrector_matrix(p: ChainParams, om_v: float, th_v: float):
    """H(Omega, Theta) of a product carrier as (h00, h01, h10, h11, det H),
    kept per (params, carrier); a nearly singular H raises NearResonance,
    which is not cached, so every solve on that carrier raises."""
    H = dispersion_matrix(p, om_v, th_v)
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    if abs(det) < _tol_res(om_v):
        raise NearResonance(
            f"|det H({om_v:.4g}, {th_v:.4g})| = {abs(det):.3e} below tolerance")
    return H[0, 0], H[0, 1], H[1, 0], H[1, 1], det


def _solve_product_corrector(p, om_v, th_v, K, weight, out):
    """Write the solution A of weight*H(Omega, Theta) A + K = 0 into the
    (2, ...) rows ``out``."""
    h00, h01, h10, h11, det = _corrector_matrix(p, om_v, th_v)
    k1, k2 = K
    out[0] = -(h11 * k1 - h01 * k2) / det / weight
    out[1] = -(-h10 * k1 + h00 * k2) / det / weight


def _wave_corrector(p, wave: Wave, b, dy_b, dtau_b, k_extra, out):
    """Corrector riding the wave's own carrier.

    Gauge: the free component vanishes; the determined one solves the
    non-degenerate row of the order-eps^2 bracket (with the quadratic
    extra source k_extra in resonant regimes).  Written into the (2, ...)
    rows ``out``.
    """
    out[...] = 0.0
    kx = k_extra if k_extra is not None else (np.zeros_like(b), np.zeros_like(b))
    if wave.degenerate:
        if wave.branch == ACOUSTIC:
            out[1] = (p.V2.k1 * dy_b + kx[1]) / (p.c2 - p.c1)
        else:
            out[0] = (p.V1.k1 * dy_b - kx[0]) / (p.c2 - p.c1)
        return
    eit = np.exp(1j * wave.theta)
    P = p.V1.k1 * (eit + 1.0)
    d_y_a2 = -wave.rho * dy_b
    out[1] = (2j * wave.omega * dtau_b - p.V1.k1 * eit * d_y_a2 - kx[0]) / P


def second_order_amplitudes(p: ChainParams, macro: MacroSystem, fields, dy_fields,
                            dtau_fields, out: Optional[np.ndarray] = None) -> dict:
    """All corrector fields A_{2,iota} for the given first-order envelopes,
    keyed by iota, each a (2, ...) complex array.

    ``fields``, ``dy_fields`` and ``dtau_fields`` hold the scalar envelopes,
    their spectral y-derivatives and their tau-derivatives; the latter come
    from the governing macroscopic equations (``tau_derivative``), never
    from time differencing.  Each envelope is one grid of shape (n,) or a
    stack of m of them, (m, n): every step acts element by element, so a
    stacked state gets the bits a single grid gets.  The fields are the
    rows of one (K, 2, ...) stack, ``out`` when given, in the order of the
    returned keys: the product carriers of ``corrector_carriers``, then the
    two wave carriers.
    """
    w1, w2 = macro.waves
    b1 = np.asarray(fields[0], dtype=complex)
    b2 = np.asarray(fields[1], dtype=complex)
    a1 = w1.amplitude_vector(b1)
    a2 = w2.amplitude_vector(b2)
    carriers = corrector_carriers(macro.mode, w1, w2)
    if out is None:
        out = np.empty((len(carriers) + 2, 2) + b1.shape, dtype=complex)

    entries = {}
    for rows, (iota, om_v, th_v, weight) in zip(out, carriers):
        K = compute_K(iota, a1, a2, p, w1.theta, w2.theta)
        _solve_product_corrector(p, om_v, th_v, K, weight, rows)
        entries[iota] = rows

    kx1, kx2 = _wave_sources(p, w1, w2, a1, a2) if macro.resonant else (None, None)
    _wave_corrector(p, w1, b1, dy_fields[0], dtau_fields[0], kx1, out[-2])
    _wave_corrector(p, w2, b2, dy_fields[1], dtau_fields[1], kx2, out[-1])
    entries[1], entries[2] = out[-2], out[-1]
    return entries
