"""Tools for the exponential family ``z -> e^z + a``: orbit classification
with tower arithmetic for astronomically fast escape, hair tracing by
symbolic addresses, a deterministic parallel rasterizer, and the drift map
``z -> z + 1 + e^-z`` with its exponential semiconjugacy.

Each module's ``__all__`` is the one list of its public names, and the
package exports their concatenation.  ``expbouquet.render`` is the
function; ``importlib.import_module("expbouquet.render")`` is the module.
"""

from . import classify, expmap, fatoufn, render, symbolic, towerfloat

__all__ = [
    name
    for module in (classify, expmap, fatoufn, render, symbolic, towerfloat)
    for name in module.__all__
]

# After the lists are read: ``from .render import *`` rebinds ``render``
# from the submodule to the function.
from .classify import *
from .expmap import *
from .fatoufn import *
from .render import *
from .symbolic import *
from .towerfloat import *

__version__ = "0.1.0"
