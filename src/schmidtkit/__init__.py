"""Schmidt decomposability toolkit for pure multipartite quantum states.

Decides whether an n-partite pure state admits a joint Schmidt form
sum_l c_l |l_1>...|l_n> with one orthonormal family per subsystem,
produces the form when it exists, and covers the surrounding toolbox:
bipartite decompositions, the equal-reduced-spectra necessary
condition, exact best-bipartition search, tensor composition,
purification and purification linking, plus a JSON file CLI.

Each module's __all__ is the one list of its public names; the package
exports their concatenation.  cli and linalg are not re-exported.
"""

from . import (bipartite, compose, errors, fixtures, io, multipartite,
               partition, purify, state)

__version__ = "0.1.0"

# read before the star imports rebind compose and purify to their functions
__all__ = ["__version__"] + [
    name for module in (state, fixtures, bipartite, multipartite, partition,
                        compose, purify, io, errors)
    for name in module.__all__]

from .state import *  # noqa: E402,F403
from .fixtures import *  # noqa: E402,F403
from .bipartite import *  # noqa: E402,F403
from .multipartite import *  # noqa: E402,F403
from .partition import *  # noqa: E402,F403
from .compose import *  # noqa: E402,F403
from .purify import *  # noqa: E402,F403
from .io import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
