"""Graph-based non-parametric two-sample tests for multivariate paired data.

The pipeline pools the n pairs into 2n points, builds a k-MST similarity
graph, removes within-pair edges, and tests the observed within-sample edge
counts (R1, R2) against their exact moments under the 2^n within-pair label
swaps. ``run_paired_test`` wires the whole pipeline around ``graph_test``;
the individual stages are exported for piecemeal use.

The package exports exactly its modules' ``__all__`` lists, so a name is
made public in its own module; no two modules may export the same name.
"""

from . import baselines, core, graph, inference, io, moments, report, simulate, stats
from ._version import __version__
from .baselines import *  # noqa: F403
from .core import *  # noqa: F403
from .graph import *  # noqa: F403
from .inference import *  # noqa: F403
from .io import *  # noqa: F403
from .moments import *  # noqa: F403
from .report import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stats import *  # noqa: F403

_MODULES = (baselines, core, graph, inference, io, moments, report, simulate, stats)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
