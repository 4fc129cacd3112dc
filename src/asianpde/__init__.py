"""Fixed-strike arithmetic Asian option valuation via an MPDATA transport solver."""

from .advection import SolverOptions
from .errors import ConfigurationError, StabilityError
from .pricing import InstrumentSpec, grid_from_price_domain, integrate, readout
from .reference import McConfig, geometric_asian_price, mc_asian_price

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "InstrumentSpec",
    "McConfig",
    "SolverOptions",
    "StabilityError",
    "geometric_asian_price",
    "grid_from_price_domain",
    "integrate",
    "mc_asian_price",
    "readout",
    "__version__",
]
