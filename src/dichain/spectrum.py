"""Dispersion relation of the linearized chain: branch frequencies,
group velocities, and polarization vectors."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams

ACOUSTIC = "acoustic"
OPTICAL = "optical"

# below this, e^{i theta}+1 is treated as zero and the theta=+-pi
# eigenvector convention applies
DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class Wave:
    """A carrier satisfying the dispersion relation.

    ``rho`` is the polarization quotient fixing the second amplitude
    component as -rho * first.  At theta=+-pi the quotient degenerates;
    ``degenerate`` is set and the eigenvector convention is (1,0) for the
    acoustic branch, (0,1) for the optical one.
    """

    branch: str
    theta: float
    omega: float
    rho: complex = 0.0
    degenerate: bool = False

    def amplitude_vector(self, b):
        """Map the scalar envelope b to the 2-component amplitude."""
        if self.degenerate:
            zero = np.zeros_like(b)
            return (b, zero) if self.branch == ACOUSTIC else (zero, b)
        return (b, -self.rho * b)


def dispersion_matrix(p: ChainParams, omega_val: float, theta: float) -> np.ndarray:
    """2x2 matrix H(omega, theta); plane waves live on det H = 0."""
    eit = np.exp(1j * theta)
    w2 = omega_val * omega_val
    return np.array([
        [w2 - p.c1, p.V1.k1 * (eit + 1.0)],
        [p.V2.k1 * (1.0 + np.conj(eit)), w2 - p.c2],
    ], dtype=complex)


def omega(p: ChainParams, branch: str, theta):
    """Branch frequency omega_-(theta) (acoustic) or omega_+(theta) (optical)."""
    theta = np.asarray(theta, dtype=float)
    rad = np.sqrt((p.c1 - p.c2) ** 2 + 8.0 * p.V1.k1 * p.V2.k1 * (np.cos(theta) + 1.0))
    sign = 1.0 if branch == OPTICAL else -1.0
    out = np.sqrt(0.5 * (p.c1 + p.c2 + sign * rad))
    return float(out) if out.ndim == 0 else out


def group_velocity(p: ChainParams, branch: str, theta):
    """omega'(theta) in closed form."""
    theta = np.asarray(theta, dtype=float)
    w = omega(p, branch, theta)
    out = -p.V1.k1 * p.V2.k1 * np.sin(theta) / (w * (2.0 * w * w - p.c1 - p.c2))
    return float(out) if np.ndim(out) == 0 else out


def polarization(p: ChainParams, branch: str, theta: float) -> Wave:
    """Construct the Wave (frequency + polarization) for a branch/theta."""
    w = float(omega(p, branch, theta))
    eit = np.exp(1j * theta)
    if abs(eit + 1.0) < DEGENERATE_TOL:
        return Wave(branch, float(theta), w, rho=0.0, degenerate=True)
    rho = (w * w - p.c1) / (p.V1.k1 * (eit + 1.0))
    return Wave(branch, float(theta), w, rho=complex(rho), degenerate=False)
