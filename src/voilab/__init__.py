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
    avg_voi_mg11,
    avg_voi_mg12,
    avg_voi_mg12star,
    closed_form_mg11_uniform_log,
    closed_form_mm12_exp,
    closed_form_report,
    residual_ccdf_mg12,
    stationary_mg11,
    stationary_mg12,
    v_tilde,
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
    Packet,
    Scenario,
    UniformValue,
    effective_lambda,
    mean_service_time,
    mgf_service,
    q_area,
    service_time,
    value_at,
)
from .quadrature import QuadratureError, QuadratureSpec, integrate
from .sim import SimConfig, SimReport, delivered_packets, instantaneous_voi, simulate

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
    "Packet",
    "QuadratureError",
    "QuadratureSpec",
    "Scenario",
    "SimConfig",
    "SimReport",
    "UniformValue",
    "UnsupportedAnalyticsError",
    "analyze",
    "avg_voi_mg11",
    "avg_voi_mg12",
    "avg_voi_mg12star",
    "closed_form_mg11_uniform_log",
    "closed_form_mm12_exp",
    "closed_form_report",
    "delivered_packets",
    "effective_lambda",
    "instantaneous_voi",
    "integrate",
    "mean_service_time",
    "mgf_service",
    "q_area",
    "residual_ccdf_mg12",
    "service_time",
    "simulate",
    "stationary_mg11",
    "stationary_mg12",
    "v_tilde",
    "value_at",
]
