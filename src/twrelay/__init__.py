"""Performance-analysis laboratory for two-way amplify-and-forward relaying
with an energy-harvesting (power-splitting) relay."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    DerivedCoeffs,
    SystemParams,
    TargetRates,
    build_params,
    derived_coeffs,
    end_to_end_snrs,
)
from .mc import Estimate  # noqa: F401
from .specfun import EULER_GAMMA  # noqa: F401
