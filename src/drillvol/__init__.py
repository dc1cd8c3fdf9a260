"""drillvol: volume bounds and tube geometry for drilled hyperbolic 3-manifolds.

Warped tube metrics and their curvatures, a finite-difference curvature
oracle, the smoothed negatively-curved metric family, the drilled-volume
inequalities with their minimum-volume corollary, and analysis of
drilled-geodesic datasets against the conjectured bound
Vol(drilled) <= Vol(parent) + pi * length.  Each module's ``__all__`` is
its public surface, and the package re-exports all of them.
"""

__version__ = "0.1.0"

from .bounds import *
from .data import *
from .errors import *
from .oracle import *
from .smoothing import *
from .warped import *
