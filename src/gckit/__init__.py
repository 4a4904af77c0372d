"""Exact arithmetic for the graph complex and the orientation morphism.

The package computes with four layers, one module each:

- :mod:`gckit.graphs` — unoriented graphs with wedge-ordered edge lists and
  their canonical signed forms;
- :mod:`gckit.complexes` — rational sums of graphs, the insertion bracket,
  the vertex-expanding differential, and cocycle kernels;
- :mod:`gckit.orient` — oriented graphs built on sink vertices, the
  orientation morphism with its sign rules, and the rule cross-checker;
- :mod:`gckit.multivectors` — polynomial multivector fields, the Schouten
  bracket, and evaluation of oriented-graph flows on Poisson bivectors.

The :mod:`gckit.cli` module exposes everything as the ``gckit`` command.
"""

# The package re-exports every module's public names.  ``orient`` is the
# orientation morphism here, not the ``gckit.orient`` module, because the
# star import binds the function after the submodule was loaded.
from .graphs import *  # noqa: F401,F403
from .graphs import __all__ as _graphs_all
from .complexes import *  # noqa: F401,F403
from .complexes import __all__ as _complexes_all
from .orient import *  # noqa: F401,F403
from .orient import __all__ as _orient_all
from .multivectors import *  # noqa: F401,F403
from .multivectors import __all__ as _multivectors_all

__version__ = "0.1.0"

__all__ = ["__version__", *_graphs_all, *_complexes_all, *_orient_all, *_multivectors_all]
