"""Shared test utilities."""
import numpy as np

from dichain import amplitude as amp
from dichain.amplitude import StrangSolution
from dichain.model import make_params


def strang_states(sys, fields0, L, tau_end, dtau):
    """Every state of a fixed-step Strang run to tau_end, its step dtau
    adjusted to tau_end/n with n = round(tau_end/dtau)."""
    n = max(1, round(tau_end / dtau))
    sol = StrangSolution(sys, fields0, L, tau_end / n)
    return [sol.fields(k * sol.dtau) for k in range(n + 1)]


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
    bit-equal to it: L from roll_stencil, and each atom's bond terms
    k2*(r*r - l*l) (plus k3*(r*r*r - l*l*l) when a bond has k3 != 0) of
    its right and left stretches r and l, less the on-site terms."""
    pos = np.asarray(pos, dtype=float)
    lin, _ = roll_stencil(p, pos)
    u1, u2 = pos[:, 0], pos[:, 1]
    s_a = np.roll(u2, -1) - u1
    s_b = u1 - u2
    s_c = np.roll(s_a, 1)
    cubic = p.V1.k3 != 0 or p.V2.k3 != 0

    def nl(v, w, r, l, u):
        r2, l2 = r * r, l * l
        out = v.k2 * (r2 - l2) - u * u * (w.k2 + w.k3 * u)
        return out + v.k3 * (r2 * r - l2 * l) if cubic else out

    return lin + np.stack([nl(p.V1, p.W1, s_a, s_b, u1), nl(p.V2, p.W2, s_b, s_c, u2)], axis=1)


def per_row_snapshot(spec, fields):
    """Independent reference for an ansatz snapshot: the grids and lattice
    rows of ``fields`` with one FFT round trip per envelope row and per
    corrector row.  Returns b_lat, dtau_lat, dy_grid, dtau_grid and the
    correctors a2_lat keyed by carrier."""
    fold = np.rint(np.fft.fftfreq(spec.n) * spec.n).astype(int) % spec.N

    def deriv(values):
        n = len(values)
        hat = np.fft.fft(values) * (1j * amp.wavenumbers(spec.L, n))
        if n % 2 == 0:
            hat[n // 2] = 0.0
        return np.fft.ifft(hat)

    def interp(values):
        pad = np.zeros(spec.N, dtype=complex)
        np.add.at(pad, fold, np.fft.fft(values))
        return np.fft.ifft(pad) * (spec.N / spec.n)

    b = tuple(np.asarray(f, dtype=complex) for f in fields)
    dy = tuple(deriv(f) for f in b)
    dtau = amp.tau_derivative(spec.macro, b, dy)
    a2 = amp.second_order_amplitudes(spec.p, spec.macro, b, dy, dtau)
    return dict(b_lat=[interp(f) for f in b], dtau_lat=[interp(f) for f in dtau],
                dy_grid=dy, dtau_grid=dtau,
                a2_lat={iota: np.stack([interp(v[0]), interp(v[1])]) for iota, v in a2.items()})
