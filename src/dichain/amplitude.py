"""Macroscopic amplitude (envelope) machinery.

First-order envelopes ride the carriers on macroscopic variables
(tau, y) = (eps*t, eps*j).  Away from resonance each envelope is simply
transported at its group velocity; at an exact acoustic->optical
resonance the two envelopes couple through quadratic source terms.  Each
coupling is the solvability condition of its wave carrier: the
quadratic source on that carrier, projected on the wave's polarization,
one formula for every resonant regime.  Every quadratic source is the
lattice's bond stencil on two carriers (``model.carrier_product_force``),
a constant vector kappa times an envelope product.  So every second-order
corrector is constant vectors chi, built once per chain and wave pair,
times envelope fields: products, or a wave's dB/dtau, dB/dy and source.

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
from tau = 0, and the first ``KEEP_OFF_GRID`` finite states it computes
between step times, read-only, so a tau asked again (by the next eps of a
sweep) takes no step.  At n grid points a state takes 32 n bytes: both
tables at their caps hold 193 states, 1.5 MB at n = 256.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .model import ChainParams, carrier_product_force
from .resonance import NotResonant, resonant_pair_defect
from .spectrum import Wave, dispersion_matrix, group_velocity

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
# quadratic sources, from the lattice's bond stencil


@lru_cache(maxsize=16)
def source_vectors(p: ChainParams, w1: Wave, w2: Wave) -> dict:
    """kappa per product carrier: as amplitudes are linear in the
    envelopes, its quadratic source is the sum of these 2-vectors times its
    ``_envelope_products``.  Each is the bond stencil on the unit
    polarizations, doubled for a product of the two waves; those of the
    mean carrier are real, as the lattice's mean force is.  Read-only."""
    (r1, t1), (r2, t2) = ((np.asarray(w.amplitude_vector(1 + 0j)), w.theta) for w in (w1, w2))
    force = partial(carrier_product_force, p)
    kappa = {(1, 1): [force(r1, t1, r1, t1)], (2, 2): [force(r2, t2, r2, t2)],
             (1, 2): [2.0 * force(r1, t1, r2, t2)],
             (1, -2): [2.0 * force(r1, t1, np.conj(r2), -t2)],
             (1, -1): [force(r, t, np.conj(r), -t).real for r, t in ((r1, t1), (r2, t2))]}
    for iota, vectors in kappa.items():
        kappa[iota] = np.array(vectors)
        kappa[iota].flags.writeable = False
    return kappa


def _envelope_products(b1, b2, resonant: bool) -> dict:
    """Each product carrier's envelope products, in the order of its
    ``source_vectors``; the mean carrier's |B1|^2 and |B2|^2 are real.
    B1 conj(B2) only when non-resonant: no resonant corrector carries it."""
    products = {(1, 1): (b1 * b1,), (2, 2): (b2 * b2,), (1, 2): (b1 * b2,),
                (1, -1): tuple(b.real * b.real + b.imag * b.imag for b in (b1, b2))}
    if not resonant:
        products[(1, -2)] = (b1 * np.conj(b2),)
    return products


# ---------------------------------------------------------------------------
# couplings, projected from the wave-carrier sources


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

    kappa = source_vectors(p, w1, w2)
    sources = (np.conj(kappa[(1, -2)][0]), kappa[(1, 1)][0])
    return tuple(complex(dot(r, s) / (2j * w.omega * dot(r, r)))
                 for w, r, s in zip((w1, w2), (r1, r2), sources))


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
    experiment builds it, so its scipy, imported only here, is a test
    dependency.  It lives here, not under tests/, because the benchmark's
    tracer (perfbench/tracing.py) patches its ``fields``."""

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


# a StrangSolution keeps the first KEEP_STEPS steps it reaches (every
# shipped config reaches at most 42) and its first KEEP_OFF_GRID states
# between step times (the five eps of convergence_resonant ask for
# 88); n = 256: 8 KB a state
KEEP_STEPS, KEEP_OFF_GRID = 64, 128


class StrangSolution:
    """Fixed-step trajectory of composed (order-4) Strang steps.  It keeps
    the state of every step it reaches up to step ``KEEP_STEPS``, and a
    cursor: the state at the last step reached.  A tau steps on from the
    latest kept state or cursor at or before its step; a tau between step
    times takes one partial composed step by ``rem`` from its step k.  The
    first ``KEEP_OFF_GRID`` such states are kept by (k, rem), their arrays
    read-only, so the same tau asked again takes no step.  A non-finite
    state, whole or partial step, raises FloatingPointError.  Every
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
        self._off_grid = {}

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
        rem = tau - k * self.dtau
        if rem <= 1e-14:
            self._extend(k)
            return self._state
        state = self._off_grid.get((k, rem))
        if state is None:
            self._extend(k)
            state = composed_step(self.sys, self._state, self.L, rem)
            if not all(np.isfinite(b).all() for b in state):
                raise FloatingPointError(f"envelope evolution diverged before tau={tau}")
            if len(self._off_grid) < KEEP_OFF_GRID:
                for b in state:
                    b.flags.writeable = False
                self._off_grid[(k, rem)] = state
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


def slow_derivative_vector(p: ChainParams, r, theta: float) -> np.ndarray:
    """D r: the lattice's linear force on the ramped carrier j r e^{i theta j},
    less j H(0, theta) r, per e^{i theta j}.  Times dB/dy it is the
    slow-derivative term of the order-eps^2 bracket on a wave carrier."""
    eit = np.exp(1j * theta)
    return np.array([p.V1.k1 * eit * r[1], -p.V2.k1 * np.conj(eit) * r[0]])


@lru_cache(maxsize=64)
def _corrector_vectors(p: ChainParams, mode: str, w1: Wave, w2: Wave):
    """(iota, chi) per corrector carrier, read-only: the product carriers in
    ``corrector_carriers`` order, each solving weight*H(Omega, Theta) chi +
    kappa = 0 per source vector, then the wave carriers 1 and 2, each
    solving the order-eps^2 bracket

        H(omega, theta) A2 = 2i omega r dB/dtau - D r dB/dy - S P

    with one chi per field dB/dtau, dB/dy and, when resonant, P: conj(B1) B2
    with S = conj(kappa_(1,-2)) on w1, B1^2 with S = kappa_(1,1) on w2 (r
    the polarization, D r the ``slow_derivative_vector``).  Gauge: the
    component r is normalized by (r1 = 1 at the optical band edge, else
    r0 = 1) is zero; the other is the least-squares solution on its column
    of H, exact for the sum, which the envelope equations make solvable.
    A nearly singular product H raises NearResonance, which is not cached,
    so every build on that carrier raises."""
    kappa, vectors = source_vectors(p, w1, w2), []
    for iota, om_v, th_v, weight in corrector_carriers(mode, w1, w2):
        H = dispersion_matrix(p, om_v, th_v)
        det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
        if abs(det) < 1e-6 * (1.0 + om_v ** 4):  # the smallest |det H| a corrector divides by
            raise NearResonance(
                f"|det H({om_v:.4g}, {th_v:.4g})| = {abs(det):.3e} below tolerance")
        k1, k2 = kappa[iota].T  # the 2x2 inverse by hand: no LAPACK call and its buffers
        chi = np.stack([-(H[1, 1] * k1 - H[0, 1] * k2) / det / weight,
                        -(-H[1, 0] * k1 + H[0, 0] * k2) / det / weight], axis=1)
        chi.flags.writeable = False
        vectors.append((iota, chi))
    sources = (-np.conj(kappa[(1, -2)]), -kappa[(1, 1)]) if mode in RESONANT_MODES else ((), ())
    for iota, w, source in zip((1, 2), (w1, w2), sources):
        r = np.asarray(w.amplitude_vector(1 + 0j))
        rhs = np.array([2j * w.omega * r, -slow_derivative_vector(p, r, w.theta), *source])
        solved = 1 if r[0] else 0  # the gauge component, r's unit one, stays zero
        col = dispersion_matrix(p, w.omega, w.theta)[:, solved]
        chi = np.zeros_like(rhs)
        chi[:, solved] = (rhs * np.conj(col)).sum(axis=1) / (abs(col) ** 2).sum()
        chi.flags.writeable = False
        vectors.append((iota, chi))
    return tuple(vectors)


def second_order_amplitudes(p: ChainParams, macro: MacroSystem, fields, dy_fields,
                            dtau_fields, out: Optional[np.ndarray] = None) -> dict:
    """All corrector fields A_{2,iota} for the given first-order envelopes,
    keyed by iota, each a (2, ...) complex array.

    ``fields``, ``dy_fields`` and ``dtau_fields`` hold the scalar envelopes,
    their spectral y-derivatives and their tau-derivatives, the latter from
    the envelope equations (``tau_derivative``), never from time
    differencing.  Each envelope is one grid (n,) or a stack of m, (m, n):
    every step acts element by element, so a stack gets a single grid's
    bits.  Each corrector is its vectors chi (``_corrector_vectors``) times
    its fields: a product carrier's envelope products; a wave carrier's
    dB/dtau, dB/dy and, when resonant, its source product.  They are the
    rows of one (K, 2, ...) stack, ``out`` when given, in the order of the
    returned keys: the product carriers of ``corrector_carriers``, then the
    two wave carriers.
    """
    b1, b2 = (np.asarray(f, dtype=complex) for f in fields)
    products = _envelope_products(b1, b2, macro.resonant)
    sources = ((np.conj(b1) * b2,), products[(1, 1)]) if macro.resonant else ((), ())
    products.update({k + 1: (dtau_fields[k], dy_fields[k]) + sources[k] for k in (0, 1)})
    vectors = _corrector_vectors(p, macro.mode, *macro.waves)
    if out is None:
        out = np.empty((len(vectors), 2) + b1.shape, dtype=complex)

    entries = {}
    for rows, (iota, chi) in zip(out, vectors):
        rows[...] = sum(np.multiply.outer(c, x) for c, x in zip(chi, products[iota]))
        entries[iota] = rows
    return entries
