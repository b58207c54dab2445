"""Numerical laboratory for nonlinear diatomic chains.

Layers: the microscopic lattice (model, microsim), its dispersion and
resonance structure (spectrum, resonance), the macroscopic envelope
equations (amplitude, ansatz), and the validation experiments tying
them together (harness, cli).
"""

from .model import (ChainParams, LatticeState, PotentialCoeffs, StabilityError,
                    cell_pack, cell_unpack, energy_norm, make_params, validate_params)
from .spectrum import ACOUSTIC, OPTICAL, Wave, dispersion_matrix, group_velocity, omega, polarization

__all__ = [
    "ChainParams", "LatticeState", "PotentialCoeffs", "StabilityError",
    "cell_pack", "cell_unpack", "energy_norm", "make_params", "validate_params",
    "ACOUSTIC", "OPTICAL", "Wave", "dispersion_matrix", "group_velocity",
    "omega", "polarization",
]

__version__ = "0.1.0"
