"""Quasinormal modes and analytic Green functions for 2D metal nanoresonators."""

from .core import (
    Background,
    ComplexFrequency,
    ConstantMaterial,
    ConvergenceError,
    Cylinder2D,
    Dipole,
    DomainError,
    DrudeModel,
    GridSpec,
    HalfSpace,
    PmlSpec,
    PoleSearchError,
    QnmError,
    Rod2D,
    SurfacePlane,
)

__all__ = [
    "Background",
    "ComplexFrequency",
    "ConstantMaterial",
    "ConvergenceError",
    "Cylinder2D",
    "Dipole",
    "DomainError",
    "DrudeModel",
    "GridSpec",
    "HalfSpace",
    "PmlSpec",
    "PoleSearchError",
    "QnmError",
    "Rod2D",
    "SurfacePlane",
]

__version__ = "0.1.0"
