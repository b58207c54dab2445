"""Shared test utilities, and the analysis functions only tests use: the
reference chain p0, det H, the resonance finder and the reduced
coordinates, the Lipschitz and norm-equivalence constants, the lattice's
separate L and M and its Hamiltonian, leapfrog as the second-order
reference scheme, and the envelopes' y- and tau-derivatives on the grid
as references for the ansatz's spectral ones."""
import functools
from dataclasses import dataclass
from unittest import mock

import numpy as np
from scipy.optimize import brentq

from dichain import amplitude as amp
from dichain import microsim
from dichain.amplitude import StrangSolution
from dichain.model import (ChainParams, LatticeState, PotentialCoeffs, _cell_bonds,
                           carrier_product_force, force, make_params)
from dichain.resonance import GRID_SIZE, resonance_defect
from dichain.spectrum import OPTICAL, dispersion_matrix

ROOT_TOL = 1e-12


# Reference parameter set used throughout the tests: v11=1, v21=2,
# w11=w21=1, purely harmonic.
def p0(**nl) -> ChainParams:
    """The harmonic reference chain (c1=3, c2=5), optionally with
    nonlinear coefficients passed as v1=(k1,k2,k3) style overrides."""
    kw = dict(v1=(1.0, 0.0, 0.0), v2=(2.0, 0.0, 0.0),
              w1=(1.0, 0.0, 0.0), w2=(1.0, 0.0, 0.0))
    kw.update(nl)
    return make_params(**kw)


def det_h(p: ChainParams, omega_val, theta):
    """det H(omega, theta), vectorized over omega/theta arrays."""
    w2 = np.asarray(omega_val) ** 2
    theta = np.asarray(theta)
    return (w2 - p.c1) * (w2 - p.c2) - p.V1.k1 * p.V2.k1 * 2.0 * (1.0 + np.cos(theta))


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


def lipschitz_constant(p: ChainParams, c0: float = 0.5) -> float:
    """Explicit constant C such that

        ||M(u) - M(w)||_M <= C*(||u||_inf + ||w||_inf)*||u - w||_M

    whenever ||u||_inf, ||w||_inf <= c0.  Crude but valid: stretches are
    bounded by twice the sup norm, |x^2-y^2| <= (|x|+|y|)|x-y|, and
    |x^3-y^3| <= (|x|+|y|)^2|x-y| within the ball.
    """
    weight_ratio = np.sqrt(max(p.M_w, p.m_w) / min(p.M_w, p.m_w))
    cv = max(abs(p.V1.k2) + 4 * c0 * abs(p.V1.k3), abs(p.V2.k2) + 4 * c0 * abs(p.V2.k3))
    cw = max(abs(p.W1.k2) + 2 * c0 * abs(p.W1.k3), abs(p.W2.k2) + 2 * c0 * abs(p.W2.k3))
    # row-wise: 2 bond differences (each spreading over <= 4 site values) + 1 on-site
    return float(weight_ratio * (16.0 * cv + 2.0 * cw))


def norm_equivalence_interval(p: ChainParams, n_theta: int = 720):
    """Equivalence constants between ||.||_Y and the plain (l2)^4 norm.

    Returns (kappa_lo, kappa_hi, sqrt of min eig, sqrt of max eig over the
    position/velocity symbols).  Computed from the extreme eigenvalues of
    the Fourier symbol of the position form and the diagonal velocity
    weights.
    """
    thetas = np.linspace(-np.pi, np.pi, n_theta)
    v = p.v_ref
    d1 = 2 * v + p.M_w * p.W1.k1
    d2 = 2 * v + p.m_w * p.W2.k1
    off = v * np.abs(1.0 + np.exp(1j * thetas))
    tr = d1 + d2
    disc = np.sqrt((d1 - d2) ** 2 + 4 * off ** 2)
    lam_min = ((tr - disc) / 2).min()
    lam_max = ((tr + disc) / 2).max()
    lo = np.sqrt(min(lam_min, p.M_w, p.m_w))
    hi = np.sqrt(max(lam_max, p.M_w, p.m_w))
    return float(lo), float(hi), float(np.sqrt(lam_min)), float(np.sqrt(lam_max))


def strang_states(sys, fields0, L, tau_end, dtau):
    """Every state of a fixed-step StrangSolution run to tau_end, its step dtau
    adjusted to tau_end/n with n = round(tau_end/dtau)."""
    n = max(1, round(tau_end / dtau))
    sol = StrangSolution(sys, fields0, L, tau_end / n)
    return [sol.fields(k * sol.dtau) for k in range(n + 1)]


def per_field_lawson_step(sys, fields, L, dtau):
    """The Lawson step of ``amp.strang_step`` written field by field: one
    spectral shift per moving envelope and state, each with its own
    wavenumbers and phase row, and the sources of the two fields apart.
    Each field takes the step's arithmetic in the step's order, so the
    stacked step must give its bits."""
    h = dtau
    kappa = 2.0 * np.pi * np.fft.fftfreq(len(fields[0]), d=L / len(fields[0]))

    def advect(f):  # E_{h/2}
        return [np.fft.ifft(np.fft.fft(b) * np.exp(1j * kappa * (v * (0.5 * h))))
                if v != 0.0 else b for b, v in zip(f, sys.velocities)]

    def rhs(b1, b2):
        return [sys.k1 * np.conj(b1) * b2, sys.k2 * b1 * b1]

    c, e = advect(fields), advect(rhs(*fields))
    k2 = rhs(*[ci + 0.5 * h * ei for ci, ei in zip(c, e)])
    k3 = rhs(*[ci + 0.5 * h * ki for ci, ki in zip(c, k2)])
    w = [ci + h / 6 * ei + h / 3 * (k2i + k3i) for ci, ei, k2i, k3i in zip(c, e, k2, k3)]
    x, y = advect([ci + h * k3i for ci, k3i in zip(c, k3)]), advect(w)
    return tuple(yi + h / 6 * ki for yi, ki in zip(y, rhs(*x)))


# leapfrog (velocity Verlet) as (kick weights, drift weights): kicks of
# 1/2 around one drift, one force call per step
LEAPFROG = ((0.5, 0.5), (1.0,))


def leapfrog():
    """Context in which the lattice steps by LEAPFROG in place of
    microsim.SCHEME: the same loop, with the stability cap default_dt and
    the 1 + n force calls of n steps that its one drift gives."""
    return mock.patch.object(microsim, "SCHEME", LEAPFROG)


def linear_apply(p: ChainParams, pos) -> np.ndarray:
    """The linear operator L: ``model.force`` on p's linear part (k2 = k3
    = 0), whose bond pass then takes k1*(s_right - s_left) - w*x.

    Row 1: v11*(u_{j+1,2} - 2u_{j,1} + u_{j,2}) - w11*u_{j,1}
    Row 2: v21*(u_{j,1} - 2u_{j,2} + u_{j-1,1}) - w21*u_{j,2}

    The sign of the u_{j-1,1} term is plus: that is what the substitution
    from the two-atom displacement equations produces, and what the
    dispersion matrix encodes.
    """
    return force(_part(p, linear=True), pos)


def nonlinear_apply(p: ChainParams, pos) -> np.ndarray:
    """The quadratic+cubic force remainder M(u): ``model.force`` on p's
    nonlinear part (k1 = 0)."""
    return force(_part(p, linear=False), pos)


@functools.cache
def _part(p: ChainParams, linear: bool) -> ChainParams:
    """p's linear or nonlinear part, unchecked (make_params refuses k1 =
    0), one object per chain so that force finds its one-ring layout
    again on the next call."""
    return ChainParams(*(PotentialCoeffs(c.k1) if linear else PotentialCoeffs(0.0, c.k2, c.k3)
                         for c in (p.V1, p.V2, p.W1, p.W2)))


def potential(c: PotentialCoeffs, x):
    """The antiderivative k1*x^2/2 + k2*x^3/3 + k3*x^4/4 of c's force."""
    return x * x * (c.k1 / 2.0 + x * (c.k2 / 3.0 + x * c.k3 / 4.0))


def hamiltonian_energy(s: LatticeState, p: ChainParams) -> float:
    """Energy diagnostic for the Newtonian flow.

    Weighted so that the first row carries unit weight: with
    mu = v11/v21,

        H = sum_j [ udot_{j,1}^2/2 + mu*udot_{j,2}^2/2 ]
          + sum_j [ V1(s_a) + V1(s_b) + W1(u_{j,1}) + mu*W2(u_{j,2}) ]

    This is exactly conserved when the bond nonlinearities are
    mass-consistent (mu*V2' = V1' as functions, automatic for the
    harmonic part); on-site nonlinearities never break conservation.
    """
    mu = p.V1.k1 / p.V2.k1
    s_a, s_b = _cell_bonds(s.pos)
    kin = 0.5 * np.sum(s.vel[:, 0] ** 2) + 0.5 * mu * np.sum(s.vel[:, 1] ** 2)
    pot = np.sum(potential(p.V1, s_a)) + np.sum(potential(p.V1, s_b))
    pot += np.sum(potential(p.W1, s.pos[:, 0])) + mu * np.sum(potential(p.W2, s.pos[:, 1]))
    return float(kin + pot)


def random_valid_params(rng, nonlinear=False):
    """Draw a parameter set satisfying every stability inequality.

    c1*c2 - 4*v11*v21 = 2*v11*w21 + 2*v21*w11 + w11*w21 > 0 holds
    automatically for positive coefficients, so only strict branch
    separation needs enforcing.
    """
    while True:
        v11, v21 = rng.uniform(0.3, 2.0, 2)
        w11, w21 = rng.uniform(0.2, 2.0, 2)
        if 2 * v11 + w11 > 2 * v21 + w21:
            v11, v21 = v21, v11
            w11, w21 = w21, w11
        if (2 * v21 + w21) - (2 * v11 + w11) > 0.05:
            break
    nl = (lambda: rng.uniform(-0.5, 0.5, 3)) if nonlinear else (lambda: (0.0, 0.0, 0.0))
    q = [nl() for _ in range(4)]
    return make_params(v1=(v11, q[0][1], q[0][2]), v2=(v21, q[1][1], q[1][2]),
                       w1=(w11, q[2][1], q[2][2]), w2=(w21, q[3][1], q[3][2]))


def roll_stencil(p, pos):
    """Independent reference: L(u) and M(u) with stretches built by np.roll."""
    pos = np.asarray(pos, dtype=float)
    u1, u2 = pos[:, 0], pos[:, 1]
    s_a = np.roll(u2, -1) - u1
    s_b = u1 - u2
    s_c = np.roll(s_a, 1)

    def fnl(c, x):
        return x * x * (c.k2 + c.k3 * x)

    lin, nl = np.empty_like(pos), np.empty_like(pos)
    lin[:, 0] = p.V1.k1 * (s_a - s_b) - p.W1.k1 * u1
    lin[:, 1] = p.V2.k1 * (s_b - s_c) - p.W2.k1 * u2
    nl[:, 0] = fnl(p.V1, s_a) - fnl(p.V1, s_b) - fnl(p.W1, u1)
    nl[:, 1] = fnl(p.V2, s_b) - fnl(p.V2, s_c) - fnl(p.W2, u2)
    return lin, nl


def roll_force(p, pos):
    """L(u) + M(u) with np.roll stretches in the arithmetic of model.force,
    bit-equal to it: each atom's bond term (r - l)*(k1 + k2*(r + l)), with
    k3*((r + l)**2 - r*l) added inside the bracket when a bond has k3 != 0,
    of its right and left stretches r and l, less the on-site terms."""
    pos = np.asarray(pos, dtype=float)
    u1, u2 = pos[:, 0], pos[:, 1]
    s_a = np.roll(u2, -1) - u1
    s_b = u1 - u2
    s_c = np.roll(s_a, 1)
    cubic = p.V1.k3 != 0 or p.V2.k3 != 0

    def row(v, w, r, l, u):
        sigma = r + l
        bond = v.k1 + v.k2 * sigma
        if cubic:
            bond = bond + v.k3 * (sigma * sigma - r * l)
        return (r - l) * bond - w.k1 * u - u * u * (w.k2 + w.k3 * u)

    return np.stack([row(p.V1, p.W1, s_a, s_b, u1), row(p.V2, p.W2, s_b, s_c, u2)], axis=1)


# the envelope factors of each product carrier, wave k's conjugate written
# -k; the mean carrier (1, -1) has one product per wave
PRODUCT_FACTORS = {(1, 1): ((1, 1),), (2, 2): ((2, 2),), (1, 2): ((1, 2),),
                   (1, -2): ((1, -2),), (1, -1): ((1, -1), (2, -2))}


def envelope_products(iota, fields):
    """The envelope products of carrier iota, one per factor pair: B_k B_l,
    with B_{-l} = conj(B_l), and |B_k|^2 as a real x*x + y*y."""
    b = [np.asarray(f, dtype=complex) for f in fields]
    out = []
    for k, l in PRODUCT_FACTORS[iota]:
        x, y = b[k - 1], b[abs(l) - 1]
        out.append(x.real * x.real + x.imag * x.imag if l == -k
                   else x * (y if l > 0 else np.conj(y)))
    return out


def per_call_corrector(p, waves, iota, om_v, th_v, fields):
    """Independent reference for a product-carrier corrector: kappa from
    ``model.carrier_product_force`` on the unit polarizations and the
    solution chi of H chi + kappa = 0, both built on every call,
    times the envelope products; (2, ...) rows, in the arithmetic of
    ``amplitude.second_order_amplitudes``."""
    def carrier(k):
        w = waves[abs(k) - 1]
        r = np.asarray(w.amplitude_vector(1 + 0j))
        return (r, w.theta) if k > 0 else (np.conj(r), -w.theta)

    twice = 2.0 if abs(iota[0]) != abs(iota[1]) else 1.0
    kappa = np.array([twice * carrier_product_force(p, *carrier(k), *carrier(l))
                      for k, l in PRODUCT_FACTORS[iota]])
    if iota == (1, -1):
        kappa = kappa.real
    H = dispersion_matrix(p, om_v, th_v)
    det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
    k1, k2 = kappa.T
    chi = np.stack([-(H[1, 1] * k1 - H[0, 1] * k2) / det,
                    -(-H[1, 0] * k1 + H[0, 0] * k2) / det], axis=1)
    return sum(np.multiply.outer(c, x) for c, x in zip(chi, envelope_products(iota, fields)))


def per_call_wave_corrector(p, macro, k, fields, dy, dtau):
    """Independent reference for the corrector on wave carrier k: the
    right-hand vectors of its order-eps^2 bracket (2i omega r, -D r and,
    when resonant, minus the source from ``model.carrier_product_force``),
    each solved on every call by least squares on the column of
    H(omega, theta) that r is not normalized by, times dB/dtau, dB/dy and the
    source product; (2, ...) rows, in the arithmetic of
    ``amplitude.second_order_amplitudes``."""
    w = macro.waves[k - 1]
    r = np.asarray(w.amplitude_vector(1 + 0j))
    e = np.exp(1j * w.theta)
    vectors = [2j * w.omega * r, -np.array([p.V1.k1 * e * r[1], -p.V2.k1 * np.conj(e) * r[0]])]
    factors = [dtau[k - 1], dy[k - 1]]
    if macro.resonant:
        (r1, t1), (r2, t2) = ((np.asarray(v.amplitude_vector(1 + 0j)), v.theta)
                              for v in macro.waves)
        b1, b2 = (np.asarray(f, dtype=complex) for f in fields)
        if k == 1:
            vectors.append(-np.conj(2.0 * carrier_product_force(p, r1, t1, np.conj(r2), -t2)))
            factors.append(np.conj(b1) * b2)
        else:
            vectors.append(-carrier_product_force(p, r1, t1, r1, t1))
            factors.append(b1 * b1)
    solved = 0 if w.degenerate and w.branch == OPTICAL else 1
    col = dispersion_matrix(p, w.omega, w.theta)[:, solved]
    chi = np.zeros((len(vectors), 2), dtype=complex)
    chi[:, solved] = (np.array(vectors) * np.conj(col)).sum(axis=1) / (abs(col) ** 2).sum()
    return sum(np.multiply.outer(c, x) for c, x in zip(chi, factors))


def hand_expanded_K(iota, a1, a2, p: ChainParams, theta1: float, theta2: float):
    """The quadratic source K_iota as a pair of components, expanded by
    hand: an oracle independent of the bond stencil
    ``model.carrier_product_force`` that the package reads its sources
    from.  Its (1, -1) source carries an imaginary part that the lattice's
    mean force does not have; only its real part is the source.

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
        else:  # (1, -1)
            val = 0.0
            for a, th in ((a1, theta1), (a2, theta2)):
                val = val + (-s * 2.0 * v2[i] * np.conj(a[i]) * a[j] * E(th)
                             - w2[i] * np.abs(a[i]) ** 2)
        out.append(val)
    return out[0], out[1]


def spectral_derivative(values: np.ndarray, L: float) -> np.ndarray:
    """Reference d/dy of each row of ``values`` along its last axis (a
    single grid or a stack of them), one FFT round trip for the whole
    stack; the unpaired Nyquist mode carries no derivative."""
    n = np.shape(values)[-1]
    hat = np.fft.fft(values) * (1j * amp.wavenumbers(L, n))
    if n % 2 == 0:
        hat[..., n // 2] = 0.0
    return np.fft.ifft(hat)


def tau_derivative(sys, fields, dy_fields):
    """Reference dB/dtau = v dB/dy + source on the grid, from the envelopes
    and their y-derivatives; a row at rest is its source alone."""
    sources = (amp._source_rhs(sys, fields) if sys.resonant
               else np.zeros((2,) + np.shape(dy_fields[0]), dtype=complex))
    return tuple(v * dy + s if v != 0.0 else s
                 for v, dy, s in zip(sys.velocities, dy_fields, sources))


def per_row_snapshot(spec, fields):
    """Independent reference for an ansatz sample: the grids and lattice
    rows of ``fields`` with one FFT round trip per envelope row and per
    corrector row.  The envelopes on the lattice are the folds of the
    grid's coefficients, and their tau-derivatives there the folds of the
    envelope equations', v*i*kappa*B plus the sources per row in Fourier
    space, on the grid.  Returns b_lat, dtau_lat, dy_grid, dtau_grid and
    the correctors a2_lat keyed by carrier."""
    fold = np.rint(np.fft.fftfreq(spec.n) * spec.n).astype(int) % spec.N

    def deriv_hat(values):
        n = len(values)
        hat = np.fft.fft(values) * (1j * amp.wavenumbers(spec.L, n))
        if n % 2 == 0:
            hat[n // 2] = 0.0
        return hat

    def interp(values):
        pad = np.zeros(spec.N, dtype=complex)
        np.add.at(pad, fold, np.fft.fft(values))
        return np.fft.ifft(pad) * (spec.N / spec.n)

    b = tuple(np.asarray(f, dtype=complex) for f in fields)
    dy = tuple(np.fft.ifft(deriv_hat(f)) for f in b)
    sources = (amp._source_rhs(spec.macro, b) if spec.macro.resonant
               else np.zeros((2, spec.n), dtype=complex))
    dtau = tuple(np.fft.ifft(v * deriv_hat(f) + np.fft.fft(s) if v != 0.0 else np.fft.fft(s))
                 for v, f, s in zip(spec.macro.velocities, b, sources))
    a2 = amp.second_order_amplitudes(spec.p, spec.macro, b, dy, dtau)
    return dict(b_lat=[interp(f) for f in b], dtau_lat=[interp(d) for d in dtau],
                dy_grid=dy, dtau_grid=dtau,
                a2_lat={iota: np.stack([interp(v[0]), interp(v[1])]) for iota, v in a2.items()})


def per_term_carrier_sum(spec, terms, t, scale):
    """2*scale*Re of the sum of a*exp(i(omega*t + theta*j)) over the
    (omega, theta, a) terms, with its own full row of phases per term."""
    j = np.arange(spec.N)
    u = np.zeros((spec.N, 2), dtype=complex)
    for omega, theta, a in terms:
        e = np.exp(1j * (omega * t + j * theta))
        u[:, 0] += a[0] * e
        u[:, 1] += a[1] * e
    return 2.0 * scale * u.real


def interpolated_sums(spec, fields, t):
    """The carrier sums of the envelope state ``fields`` at lattice time t
    as interpolated amplitudes times phase rows: every grid row taken to
    the lattice by ``spec.interp`` (B, its tau-derivative on the grid by
    ``tau_derivative`` and the corrector rows), then summed by
    ``per_term_carrier_sum`` on fresh phase rows.  Returns the leading
    positions and velocities and the corrector position and velocity
    terms, each (N, 2)."""
    b = np.asarray(fields, dtype=complex)
    dy = spectral_derivative(b, spec.L)
    dtau = np.asarray(tau_derivative(spec.macro, b, dy))
    a2 = np.empty((len(spec.carriers), 2, spec.n), dtype=complex)
    amp.second_order_amplitudes(spec.p, spec.macro, b, dy, dtau, out=a2)
    b_lat, dtau_lat, a2_lat = spec.interp(b), spec.interp(dtau), spec.interp(a2)
    waves = spec.macro.waves

    def first(envelopes):
        return per_term_carrier_sum(spec, [(w.omega, w.theta, w.amplitude_vector(e))
                                       for w, e in zip(waves, envelopes)], t, spec.eps)

    def second(time_derivative):
        terms = []
        for (_, om_v, th_v), a in zip(spec.carriers, a2_lat):
            c = 1j * om_v if time_derivative else 1.0
            if c != 0.0:
                terms.append((om_v, th_v, c * a))
        return per_term_carrier_sum(spec, terms, t, spec.eps ** 2)

    vel = [1j * w.omega * e + spec.eps * d for w, e, d in zip(waves, b_lat, dtau_lat)]
    return first(b_lat), first(vel), second(False), second(True)


@dataclass(frozen=True)
class ClosedFormCoupling:
    """The hand-derived coefficients of the resonant envelope system: raw
    (d1, d2, d) and the prefactors (k1, k2) of

        dB1/dtau - v1 dB1/dy = k1 * conj(B1) * B2
        dB2/dtau - v2 dB2/dy = k2 * B1^2

    ``d`` is None outside the generic regime."""

    d1: complex
    d2: complex
    d: object
    k1: complex
    k2: complex


def coupling_prefactors(p: ChainParams, w1, w2):
    """(P1, P2) with k1 = P1*d1 and k2 = P2*d2.  P2 vanishes when the
    optical wave sits at the band edge theta2 = +-pi (omega2^2 = c2)."""
    def pref(w, n):
        s1, s2 = w.omega ** 2 - p.c1, w.omega ** 2 - p.c2
        return s2 / (n * 1j * w.omega * (s1 + s2))

    return pref(w1, 1), pref(w2, 2)


def coupling_closed_form(p: ChainParams, w1, w2) -> ClosedFormCoupling:
    """The paper's closed forms in its three resonant regimes: generic
    theta1; theta1 = +-pi/2 (the generated wave sits at the band edge
    theta2 = +-pi); theta1 = +-pi (the generated wave sits at theta2 = 0
    and both group velocities vanish).  An oracle independent of the
    projection in amplitude.build_macro_system."""
    v12, v22 = p.V1.k2, p.V2.k2
    w12, w22 = p.W1.k2, p.W2.k2
    om1, om2 = w1.omega, w2.omega
    th1 = w1.theta
    s1 = om1 * om1 - p.c1, om1 * om1 - p.c2
    s2 = om2 * om2 - p.c1, om2 * om2 - p.c2
    pf1, pf2 = coupling_prefactors(p, w1, w2)

    if w1.degenerate:  # theta1 = +-pi, omega1 = sqrt(c1)
        d1 = d2 = complex(-w12)
        return ClosedFormCoupling(d1, d2, None, pf1 * d1, pf2 * d2)

    e1 = np.exp(1j * th1)
    if abs(e1 * e1 + 1.0) < 1e-8:  # theta1 = +-pi/2, theta2 = +-pi
        sg = 1.0 if np.sin(th1) > 0 else -1.0
        rho1 = w1.rho
        d1 = ((v22 / p.V2.k1 - sg * 1j * w22 / s1[1]) * s1[0]
              + v12 * (rho1 * (1.0 + sg * 1j) + 2.0))
        k2 = (2.0 * v22 * (1.0 + rho1 * (1.0 + sg * 1j)) - w22 * rho1 ** 2) / (2j * om2)
        return ClosedFormCoupling(complex(d1), complex(k2 * 2j * om2), None,
                                  complex(pf1 * d1), complex(k2))

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
    return ClosedFormCoupling(complex(d1), complex(d2), complex(d),
                              complex(pf1 * d1), complex(pf2 * d2))
