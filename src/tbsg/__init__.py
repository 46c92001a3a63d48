"""Tree-based search graph (TBSG): an approximate nearest-neighbor index.

The index combines a cover tree (global connectivity, fixed enter point)
with a bidirected K-nearest-neighbor graph, pruned per node by a
probability-guaranteed rule, and answers queries with best-first pool
search. See README.md for the CLI walkthrough.

Each module's __all__ is the one list of its public names; the package
republishes them all, in pipeline order.
"""

from . import bench, core, covertree, index, io, knng, pruning
from .bench import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .covertree import *  # noqa: F401,F403
from .index import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .knng import *  # noqa: F401,F403
from .pruning import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *io.__all__,
    *knng.__all__,
    *covertree.__all__,
    *pruning.__all__,
    *index.__all__,
    *bench.__all__,
    "__version__",
]
