"""Symmetry-adapted bosonic states in a truncated Fock space.

Cyclic and dihedral projections of seed states, built by photon-number
erasure onto one residue class and cross-checked against the
character-weighted superposition of rotated copies, plus the observables
used to certify them: Wigner functions, Mandel parameter, and bipartite
linear entropy.
"""
from . import cyclic, fock, gaussian, group, observables, verify
from .group import *
from .fock import *
from .cyclic import *
from .gaussian import *
from .observables import *
from .verify import *

__version__ = "0.1.0"

__all__ = [name for module in (group, fock, cyclic, gaussian, observables, verify)
           for name in module.__all__] + ["__version__"]
