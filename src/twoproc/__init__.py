"""Convergence bounds and transient analysis for a non-stationary
two-processor heterogeneous queue."""

from .bounds import ConvergenceCertificate, NoCertificate, NotErgodicError, make_certificate
from .matrices import WeightSequence
from .model import ModelSpec, RateFunction
from .solver import SolveSettings

__version__ = "0.1.0"

__all__ = [
    "ConvergenceCertificate",
    "ModelSpec",
    "NoCertificate",
    "NotErgodicError",
    "RateFunction",
    "SolveSettings",
    "WeightSequence",
    "make_certificate",
]
