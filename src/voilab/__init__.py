"""Queueing laboratory for the value of deadline-limited status updates.

Two independent routes to the same quantity: renewal-reward analytics
(vectorised Gauss-Legendre quadrature, checked against closed forms where
they exist) and seeded discrete-event simulation, over three
packet-management disciplines.
"""

from .analytics import (
    AnalyticReport,
    UnsupportedAnalyticsError,
    analyze,
    closed_form_report,
)
from .model import (
    ADMISSIONS,
    BinaryValue,
    ClassExponentialService,
    DependentService,
    DescendFunction,
    DISCIPLINES,
    ExponentialValue,
    IndependentDeterministicService,
    IndependentExponentialService,
    MG11,
    MG12,
    MG12_STAR,
    Scenario,
    UniformValue,
)
from .quadrature import QuadratureError
from .sim import SimConfig, SimReport, simulate

__version__ = "0.1.0"

__all__ = [
    "ADMISSIONS",
    "AnalyticReport",
    "BinaryValue",
    "ClassExponentialService",
    "DependentService",
    "DescendFunction",
    "DISCIPLINES",
    "ExponentialValue",
    "IndependentDeterministicService",
    "IndependentExponentialService",
    "MG11",
    "MG12",
    "MG12_STAR",
    "QuadratureError",
    "Scenario",
    "SimConfig",
    "SimReport",
    "UniformValue",
    "UnsupportedAnalyticsError",
    "analyze",
    "closed_form_report",
    "simulate",
]
