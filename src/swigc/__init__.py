"""swigc: compile trial specs with intercurrent-event strategies into
single-world intervention graphs, identification derivations with
machine-checkable premises, and graph markup.

The flow mirrors a compiler: parse_study (front end), compile_study
(strategy lowering), split / d_separated (graph core), identify_estimand
(derivation engine), check_soundness and friends (ground-truth oracle),
to_tikz / to_dot (back ends).

The package exports each module's ``__all__``; that list is the one
place a public name is declared.
"""

from .dsep import *
from .dsl import *
from .errors import *
from .estimand import *
from .formula import *
from .graph import *
from .identify import *
from .model import *
from .oracle import *
from .markup import *
from .swig import *

__version__ = "0.1.0"

# Each star import above also bound its submodule's name here.
__all__ = [
    "__version__",
    *dsep.__all__,
    *dsl.__all__,
    *errors.__all__,
    *estimand.__all__,
    *formula.__all__,
    *graph.__all__,
    *identify.__all__,
    *model.__all__,
    *oracle.__all__,
    *markup.__all__,
    *swig.__all__,
]
