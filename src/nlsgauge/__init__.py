"""Gauge transformations of the third kind for 1-D nonlinear Schrodinger
equations: exact coefficient maps, a five-function classification engine,
coupled-system and externally-gauged variants, and a numerical verification
harness.

Convention: i psi_t + lap psi + (W + i calW) psi = 0 with psi = sqrt(rho) e^{iS}.
The API is the submodules: import each name from the module that defines it.
"""

__version__ = "0.1.0"
