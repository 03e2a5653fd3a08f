"""Correlated Gaussian matrix pairs and the spectra of their products.

Sample paired N x P Gaussian matrices (X, Y) with tunable per-entry
correlation, compute eigenvalue clouds of the products X Y* and X Y†,
predict their limiting supports in closed form (an ellipse and a disc,
plus a possible atom at zero), and verify predictions against both exact
finite-size identities and Monte Carlo coverage statistics.

Each module declares its public names once, in its own ``__all__``; the
package re-exports every one of them, so ``pairspec.X`` is ``module.X``.
"""

from . import empirical, ensembles, errors, harness, matalg, predict
from ._version import PACKAGE_VERSION as __version__
from .ensembles import *
from .matalg import *
from .predict import *
from .empirical import *
from .harness import *
from .errors import *

__all__ = ["__version__"]
__all__ += ensembles.__all__
__all__ += matalg.__all__
__all__ += predict.__all__
__all__ += empirical.__all__
__all__ += harness.__all__
__all__ += errors.__all__
