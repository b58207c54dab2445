"""Macroscopic amplitude (envelope) machinery.

First-order envelopes ride the carriers on macroscopic variables
(tau, y) = (eps*t, eps*j).  The regime is one flag, ``MacroSystem.resonant``:
away from resonance each envelope is simply transported at its group
velocity; at an exact acoustic->optical resonance the two envelopes
couple through quadratic source terms.  Each
coupling is the solvability condition of its wave carrier: the
quadratic source on that carrier, projected on the wave's polarization,
one formula for every resonant regime.  Every quadratic source is the
lattice's bond stencil on two carriers (``model.carrier_product_force``),
a constant vector kappa times an envelope product.  So every second-order
corrector is constant vectors chi of the chain and wave pair times
envelope fields: products, or a wave's dB/dtau, dB/dy and source.

Every resonant pair is stepped by Lawson's integrating-factor RK4
(``strang_step``), order 4 in one step: two FFT round trips over the
rows whose group velocity is nonzero, with their phases
exp(i kappa v dt) cached per (velocities, L, n, dt), and four source
evaluations of both rows at once; a pair at rest (the c = 1 family)
takes classical RK4 steps.  At its fixed step ``STRANG_DTAU`` = 0.025
it errs 5 times less than the triple jump of Strang steps it replaced,
which made three times the FFTs and source evaluations.  A
``StrangSolution`` keeps one table of the first ``KEEP_STATES`` finite
states it reaches, read-only, at step times and between them: a later
query for an earlier tau steps on from a kept step instead of from
tau = 0, and a tau asked again (by the next eps of a sweep) takes no
step.  At n grid points a state takes 32 n bytes: the table at its cap
holds 192 states, 1.5 MB at n = 256.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .model import ChainParams, carrier_product_force
from .resonance import is_resonant_pair
from .spectrum import Wave, dispersion_matrix, group_velocity


class NearResonance(ValueError):
    """A corrector would divide by a nearly singular dispersion matrix."""


# ---------------------------------------------------------------------------
# periodic grid helpers


def grid_points(L: float, n: int) -> np.ndarray:
    return np.arange(n) * (L / n)


@lru_cache(maxsize=16)
def wavenumbers(L: float, n: int) -> np.ndarray:
    """The grid's wavenumbers in fftfreq order, once per (L, n), read-only."""
    kappa = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    kappa.flags.writeable = False
    return kappa


@lru_cache(maxsize=16)
def _advection_factors(velocities: tuple, L: float, n: int, dt: float) -> np.ndarray:
    """exp(i kappa v dt), one row per nonzero velocity: multiplying the
    Fourier coefficients by it evaluates the trigonometric interpolant at
    y + v dt (exact advection).  Read-only; a step reuses it every call."""
    kappa = wavenumbers(L, n)
    phase = np.array([np.exp(1j * kappa * (v * dt)) for v in velocities if v != 0.0])
    phase.flags.writeable = False
    return phase


def sech_envelope(L: float, n: int, a0: float, nu: float) -> np.ndarray:
    return (a0 / np.cosh(nu * (grid_points(L, n) - L / 2.0))).astype(complex)


# ---------------------------------------------------------------------------
# quadratic sources, from the lattice's bond stencil


def source_vectors(p: ChainParams, w1: Wave, w2: Wave) -> dict:
    """kappa per product carrier: as amplitudes are linear in the
    envelopes, its quadratic source is the sum of these 2-vectors times its
    ``_envelope_products``.  Each is the bond stencil on the unit
    polarizations, doubled for a product of the two waves; those of the
    mean carrier are real, as the lattice's mean force is."""
    (r1, t1), (r2, t2) = ((np.asarray(w.amplitude_vector(1 + 0j)), w.theta) for w in (w1, w2))
    force = partial(carrier_product_force, p)
    kappa = {(1, 1): [force(r1, t1, r1, t1)], (2, 2): [force(r2, t2, r2, t2)],
             (1, 2): [2.0 * force(r1, t1, r2, t2)],
             (1, -2): [2.0 * force(r1, t1, np.conj(r2), -t2)],
             (1, -1): [force(r, t, np.conj(r), -t).real for r, t in ((r1, t1), (r2, t2))]}
    return {iota: np.array(vectors) for iota, vectors in kappa.items()}


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


def _couplings(p: ChainParams, w1: Wave, w2: Wave):
    """The prefactors (k1, k2) of a resonant pair's envelope system

        dB1/dtau - v1 dB1/dy = k1 * conj(B1) * B2
        dB2/dtau - v2 dB2/dy = k2 * B1^2

    from the solvability condition of each wave carrier: its source S_w at
    unit envelopes projected on its polarization r_w,
    k_w = <r_w, S_w> / (2i omega_w <r_w, r_w>), in the mass-weighted product
    <a, b> = M_w conj(a0) b0 + m_w conj(a1) b1 of ``model.norm_m``.  A
    band-edge wave's r_w is a unit vector, so no regime needs a branch.
    """
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

    resonant: bool
    waves: tuple
    velocities: tuple
    k1: complex = 0.0
    k2: complex = 0.0


# a group velocity this small is zero: at the band edge theta2 = pi the
# optical one is -5.9e-17 in floating point.  Such an envelope is not
# advected, so a Strang step of a resonant pair with both at rest only
# integrates its sources.
VELOCITY_ZERO = 1e-12


def build_macro_system(p: ChainParams, w1: Wave, w2: Wave) -> MacroSystem:
    """Classify the wave pair, the package's one resonance test, and assemble
    the envelope system: w1 is degenerate at theta1 = +-pi, w2 at theta1 = +-pi/2."""
    vels = tuple(0.0 if abs(v) <= VELOCITY_ZERO else v
                 for v in (float(group_velocity(p, w.branch, w.theta)) for w in (w1, w2)))
    if not is_resonant_pair(w1, w2):
        return MacroSystem(False, (w1, w2), vels)
    return MacroSystem(True, (w1, w2), vels, *_couplings(p, w1, w2))


# ---------------------------------------------------------------------------
# envelope evolution


def _source_rhs(sys, fields):
    """The quadratic sources (k1 conj(B1) B2, k2 B1^2) as one (2, ...) array."""
    b1, b2 = fields
    out = np.empty((2,) + np.shape(b1), dtype=complex)
    np.multiply(sys.k1 * np.conj(b1), b2, out=out[0])
    np.multiply(sys.k2 * b1, b1, out=out[1])
    return out


def _advect(sys, stack, L, dt):
    """Exact advection of each envelope by v*dt, in place on ``stack``,
    whose axis -2 runs over the two envelopes: one FFT round trip over the
    rows whose group velocity is nonzero; a row at rest is not touched."""
    moving = [i for i, v in enumerate(sys.velocities) if v != 0.0]
    if moving:
        m = slice(moving[0], moving[-1] + 1)  # of two rows, any set is contiguous
        hat = np.fft.fft(stack[..., m, :])
        hat *= _advection_factors(sys.velocities, L, stack.shape[-1], dt)
        stack[..., m, :] = np.fft.ifft(hat)
    return stack


def strang_step(sys: MacroSystem, fields, L: float, dtau: float):
    """One Lawson step by h = dtau (Lawson, SIAM J. Numer. Anal. 4 (1967)
    372-380): RK4 in the frame of the exact advection, E_s by s, with N
    the sources,

        k1 = N(B),  k2 = N(E_{h/2}(B + h/2 k1)),  k3 = N(E_{h/2}B + h/2 k2),
        k4 = N(E_h B + h E_{h/2}k3),
        B <- E_h(B + h/6 k1) + h/3 E_{h/2}(k2 + k3) + h/6 k4,

    as E_h = E_{h/2}E_{h/2}, in two round trips of E_{h/2} of two states
    each.  At rest it is classical RK4; non-resonant, E_h.  Named for the
    Strang steps it replaced until ROADMAP item 1's benchmark commit."""
    h = dtau
    if not sys.resonant:
        return tuple(_advect(sys, np.array(fields, dtype=complex), L, h))
    s = np.array((fields, _source_rhs(sys, fields)))
    c, e = _advect(sys, s, L, 0.5 * h)  # E_{h/2}B and E_{h/2}k1
    k2 = _source_rhs(sys, c + 0.5 * h * e)
    k3 = _source_rhs(sys, c + 0.5 * h * k2)
    e[...] = c + h / 6 * e + h / 3 * (k2 + k3)
    c += h * k3
    x, y = _advect(sys, s, L, 0.5 * h)
    return tuple(y + h / 6 * _source_rhs(sys, x))


# ---------------------------------------------------------------------------
# time-continuous solution providers (evaluable at arbitrary tau)


class TransportSolution:
    """Exact solution of the uncoupled transport regime."""

    def __init__(self, sys: MacroSystem, fields0, L: float):
        if sys.resonant:
            raise ValueError("TransportSolution only applies to the non-resonant regime")
        self.sys = sys
        self.L = L
        self._f0 = np.array(fields0, dtype=complex)

    def fields(self, tau: float):
        return tuple(_advect(self.sys, self._f0.copy(), self.L, tau))


class ODEReferenceSolution:
    """Dense DOP853 solution of a resonant system with vanishing group
    velocities (the envelope equations reduce to a pointwise ODE), solved
    over [0, tau_max] at once.  The tests' reference for StrangSolution: no
    experiment builds it, so its scipy, imported only here, is a test
    dependency.  It lives here, not under tests/, because the benchmark's
    tracer (perfbench/tracing.py) patches its ``fields``, until ROADMAP
    item 1's benchmark commit."""

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


# the Lawson step of a resonant StrangSolution (renamed in ROADMAP item 1's
# benchmark commit): on the bench's c = 0.5 config (n = 256, eps = 0.025)
# it errs at tau = 1.5 by 1.8e-11 relative to steps 32 times shorter (the
# triple jump: 9.5e-11); at rest (c = 1, tau = 1) by 5.8e-13 from DOP853
STRANG_DTAU = 0.025


# a StrangSolution keeps the first KEEP_STATES states it reaches, whole
# and partial steps alike (a shipped config reaches at most 42 whole and
# 88 partial ones); n = 256: 8 KB a state
KEEP_STATES = 192


class StrangSolution:
    """Fixed-step trajectory of Lawson (order-4) steps, ``strang_step``,
    named with it for the Strang steps they replaced until ROADMAP item
    1's benchmark commit renames both.  It keeps one table of states by
    (k, rem), the state at tau = k*dtau + rem, with rem = 0 at a step
    time: the first ``KEEP_STATES`` states it reaches, whole or partial
    steps, their arrays read-only.  A cursor holds the state at the last
    step reached.  A tau steps on from the latest kept step or the cursor
    at or before its step k; a tau between step times then takes one
    partial step by ``rem``, so the same tau asked again takes no step,
    past the cap too while it is the last partial step taken.  A
    non-finite state, whole or partial step, raises FloatingPointError
    naming its tau and is not kept.  Every state is the same composition
    of steps from the initial one, so the values returned do not depend
    on the order of the queries.
    """

    def __init__(self, sys: MacroSystem, fields0, L: float, dtau: float):
        self.sys = sys
        self.L = L
        self.dtau = dtau
        f0 = tuple(np.array(b, dtype=complex) for b in fields0)
        for b in f0:
            b.flags.writeable = False
        # the cursor is step _k and its state; perfbench/tracing.py counts
        # the states _extend adds to _states
        self._k, self._state, self._states = 0, f0, {(0, 0.0): f0}
        self._partial = (None, None)  # the last partial state returned, by its key

    def _step(self, state, dtau, key, tau):
        """One step by dtau from ``state`` to the state at tau, read-only,
        kept by ``key`` while the table has room."""
        state = strang_step(self.sys, state, self.L, dtau)
        if not all(np.isfinite(b).all() for b in state):
            raise FloatingPointError(f"envelope evolution diverged before tau={tau}")
        for b in state:
            b.flags.writeable = False
        if len(self._states) < KEEP_STATES:
            self._states[key] = state
        return state

    def _extend(self, k):
        """Move the cursor to step k."""
        k0 = k
        while (k0, 0.0) not in self._states and k0 != self._k:
            k0 -= 1
        state = self._states.get((k0, 0.0), self._state)
        for j in range(k0 + 1, k + 1):
            state = self._step(state, self.dtau, (j, 0.0), j * self.dtau)
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
        state = self._states.get((k, rem))
        if state is None:
            if self._partial[0] != (k, rem):
                self._extend(k)
                self._partial = (k, rem), self._step(self._state, rem, (k, rem), tau)
            state = self._partial[1]
        return state


def make_solution(sys: MacroSystem, fields0, L: float, dtau: float = STRANG_DTAU):
    """The evaluable-at-any-tau solution of the regime: exact transport
    when non-resonant, else a StrangSolution stepping by ``dtau``."""
    if not sys.resonant:
        return TransportSolution(sys, fields0, L)
    return StrangSolution(sys, fields0, L, dtau)


# ---------------------------------------------------------------------------
# second-order correctors


def carriers(resonant: bool, w1: Wave, w2: Wave):
    """The improved ansatz's carrier table, (iota, Omega, Theta) per
    carrier: the wave carriers 1 and 2, then the product carriers.  Each
    carrier's amplitude A enters as 2 Re(A e^{i(Omega t + Theta j)}), the
    mean carrier (1, -1) too."""
    om1, th1, om2, th2 = w1.omega, w1.theta, w2.omega, w2.theta
    if resonant:
        products = [((1, 2), om1 + om2, th1 + th2), ((2, 2), 2 * om2, 2 * th2)]
    else:
        products = [((1, 1), 2 * om1, 2 * th1), ((2, 2), 2 * om2, 2 * th2),
                    ((1, 2), om1 + om2, th1 + th2), ((1, -2), om1 - om2, th1 - th2)]
    return [(1, om1, th1), (2, om2, th2), *products, ((1, -1), 0.0, 0.0)]


def slow_derivative_vector(p: ChainParams, r, theta: float) -> np.ndarray:
    """D r: the lattice's linear force on the ramped carrier j r e^{i theta j},
    less j H(0, theta) r, per e^{i theta j}.  Times dB/dy it is the
    slow-derivative term of the order-eps^2 bracket on a wave carrier."""
    eit = np.exp(1j * theta)
    return np.array([p.V1.k1 * eit * r[1], -p.V2.k1 * np.conj(eit) * r[0]])


def _corrector_vectors(p: ChainParams, resonant: bool, w1: Wave, w2: Wave):
    """(iota, chi) per carrier of ``carriers``, in its order: the wave
    carriers 1 and 2, each solving the order-eps^2 bracket

        H(omega, theta) A2 = 2i omega r dB/dtau - D r dB/dy - S P

    with one chi per field dB/dtau, dB/dy and, when resonant, P: conj(B1) B2
    with S = conj(kappa_(1,-2)) on w1, B1^2 with S = kappa_(1,1) on w2 (r
    the polarization, D r the ``slow_derivative_vector``), then the product
    carriers, each solving H(Omega, Theta) chi + kappa = 0 per source
    vector.  Gauge: the component r is normalized by (r1 = 1 at the optical
    band edge, else r0 = 1) is zero; the other is the least-squares
    solution on its column of H, exact for the sum, which the envelope
    equations make solvable.  A nearly singular product H raises
    NearResonance."""
    kappa, vectors = source_vectors(p, w1, w2), []
    sources = (-np.conj(kappa[(1, -2)]), -kappa[(1, 1)]) if resonant else ((), ())
    for iota, w, source in zip((1, 2), (w1, w2), sources):
        r = np.asarray(w.amplitude_vector(1 + 0j))
        rhs = np.array([2j * w.omega * r, -slow_derivative_vector(p, r, w.theta), *source])
        solved = 1 if r[0] else 0  # the gauge component, r's unit one, stays zero
        col = dispersion_matrix(p, w.omega, w.theta)[:, solved]
        chi = np.zeros_like(rhs)
        chi[:, solved] = (rhs * np.conj(col)).sum(axis=1) / (abs(col) ** 2).sum()
        vectors.append((iota, chi))
    for iota, om_v, th_v in carriers(resonant, w1, w2)[2:]:
        H = dispersion_matrix(p, om_v, th_v)
        det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
        if abs(det) < 1e-6 * (1.0 + om_v ** 4):  # the smallest |det H| a corrector divides by
            raise NearResonance(
                f"|det H({om_v:.4g}, {th_v:.4g})| = {abs(det):.3e} below tolerance")
        k1, k2 = kappa[iota].T  # the 2x2 inverse by hand: no LAPACK call and its buffers
        chi = np.stack([-(H[1, 1] * k1 - H[0, 1] * k2) / det,
                        -(-H[1, 0] * k1 + H[0, 0] * k2) / det], axis=1)
        vectors.append((iota, chi))
    return vectors


def second_order_amplitudes(p: ChainParams, macro: MacroSystem, fields, dy_fields,
                            dtau_fields, out: Optional[np.ndarray] = None) -> dict:
    """All corrector fields A_{2,iota} for the given first-order envelopes,
    keyed by iota, each a (2, ...) complex array.

    ``fields``, ``dy_fields`` and ``dtau_fields`` hold the scalar envelopes,
    their spectral y-derivatives and their tau-derivatives, the latter from
    the envelope equations (``ansatz._Snapshot``), never from time
    differencing.  Each envelope is one grid (n,) or a stack of m, (m, n):
    every step acts element by element, so a stack gets a single grid's
    bits.  Each corrector is its vectors chi (``_corrector_vectors``) times
    its fields: a wave carrier's dB/dtau, dB/dy and, when resonant, its
    source product; a product carrier's envelope products.  They are the
    rows of one (K, 2, ...) stack, ``out`` when given, row k the corrector
    of carrier k of ``carriers``, as are the returned keys.
    """
    b1, b2 = (np.asarray(f, dtype=complex) for f in fields)
    products = _envelope_products(b1, b2, macro.resonant)
    sources = ((np.conj(b1) * b2,), products[(1, 1)]) if macro.resonant else ((), ())
    products.update({k + 1: (dtau_fields[k], dy_fields[k]) + sources[k] for k in (0, 1)})
    vectors = _corrector_vectors(p, macro.resonant, *macro.waves)
    if out is None:
        out = np.empty((len(vectors), 2) + b1.shape, dtype=complex)

    entries = {}
    for rows, (iota, chi) in zip(out, vectors):
        rows[...] = sum(np.multiply.outer(c, x) for c, x in zip(chi, products[iota]))
        entries[iota] = rows
    return entries
