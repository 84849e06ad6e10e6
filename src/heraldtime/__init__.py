"""heraldtime: arrival-time statistics of photon pairs in dispersive links.

Simulate coincidence data from the joint Gaussian arrival-time model, recover
its parameters by fitting, analyze heralded (windowed conditional) narrowing,
and find the photon-pair-source settings that minimize temporal widths for a
given fiber link.

The package exports each module's ``__all__``, in the order imported below.
"""

from .params import *
from .analytic import *
from .sampler import *
from .fitting import *
from .herald import *
from .dataio import *
from . import analytic, dataio, fitting, herald, params, sampler

__version__ = "0.1.0"

__all__ = list(dict.fromkeys(["__version__", *(
    name for module in (params, analytic, sampler, fitting, herald, dataio)
    for name in module.__all__)]))
