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
    closed_form_mg11_uniform_log,
    closed_form_mm12_exp,
    closed_form_report,
    residual_ccdf_mg12,
    stationary_mg11,
    stationary_mg12,
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
    effective_lambda,
    mean_service_time,
    mgf_service,
)
from .quadrature import QuadratureError, QuadratureSpec, integrate
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
    "QuadratureSpec",
    "Scenario",
    "SimConfig",
    "SimReport",
    "UniformValue",
    "UnsupportedAnalyticsError",
    "analyze",
    "closed_form_mg11_uniform_log",
    "closed_form_mm12_exp",
    "closed_form_report",
    "effective_lambda",
    "integrate",
    "mean_service_time",
    "mgf_service",
    "residual_ccdf_mg12",
    "simulate",
    "stationary_mg11",
    "stationary_mg12",
]
