"""Rate allocation for streaming flows with S-shaped utilities.

Successive convexification plus dual link pricing: the non-concave
utility problem is transformed source by source, capacity constraints
are linearized at the previous iterate, and link prices steer the
closed-form per-source rate updates to a KKT point.

The package exports each module's ``__all__``, and nothing else; a
module's ``__all__`` is the one list of its public names.
"""

from . import agents, engine, network, oracle, scenario, utility
from .network import *
from .utility import *
from .engine import *
from .oracle import *
from .agents import *
from .scenario import *

__all__ = [*network.__all__, *utility.__all__, *engine.__all__, *oracle.__all__,
           *agents.__all__, *scenario.__all__]

__version__ = "0.1.0"
