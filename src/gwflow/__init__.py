"""Numerics for the volume-normalized Ricci flow on three-summand
homogeneous spaces, centered on the family ``P_n`` of dimension ``8n - 4``."""

from . import spaces, flows, integrate, experiment, checks, portrait

# the public names are the modules' own __all__ lists, concatenated in import
# order; the star imports below bind them (and rebind ``integrate`` from the
# module to the function)
__all__ = [
    name
    for module in (spaces, flows, integrate, experiment, checks, portrait)
    for name in module.__all__
]

from .spaces import *  # noqa: E402,F401,F403
from .flows import *  # noqa: E402,F401,F403
from .integrate import *  # noqa: E402,F401,F403
from .experiment import *  # noqa: E402,F401,F403
from .checks import *  # noqa: E402,F401,F403
from .portrait import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
