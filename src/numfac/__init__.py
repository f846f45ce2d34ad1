"""Factorization invariants of numerical monoids.

Dynamic algorithms for factorization sets, length sets, delta sets and
omega-primality, each cross-validated against an independent
brute-force oracle.

>>> from numfac import NumericalMonoid, factorizations, delta_set, omega
>>> S = NumericalMonoid([6, 9, 20])
>>> sorted(factorizations(S, 60))
[(0, 0, 3), (1, 6, 0), (4, 4, 0), (7, 2, 0), (10, 0, 0)]
>>> delta_set(S, bound_override=144)
(1, 2, 3, 4)
>>> omega(S, 1000)
170
"""

import sys

from .delta import *  # noqa: F403
from .errors import *  # noqa: F403
from .factorization import *  # noqa: F403
from .monoid import *  # noqa: F403
from .omega import *  # noqa: F403
from .verify import PropertyResult, run_suite

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; the modules
# are looked up by name because ``omega`` here is the function
__all__ = [name for module in ("delta", "errors", "factorization", "monoid", "omega")
           for name in sys.modules[f"{__name__}.{module}"].__all__]
__all__ += ["PropertyResult", "run_suite", "__version__"]
