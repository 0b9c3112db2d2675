"""SINO: a spectral-inspired neural operator that learns PDE right-hand
sides from a handful of trajectories, plus the pseudo-spectral reference
solvers that generate its data and a self-contained training engine.
"""

from .errors import SinoError

__version__ = "0.1.0"
