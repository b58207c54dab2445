"""Shared test utilities."""
import numpy as np

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
