"""Frequency-domain Maxwell solver: operator assembly with its driven
solve and point sampling, the full-wave dipole oracle (:mod:`.oracle`),
quasinormal-mode pole search, and the analytic cylinder series with its
exact dipole Green function."""

from ..core import bilinear_sample, colocate
from .fdfd import DiscreteOperator, assemble, curl_cells
from .mie import mie_cylinder, mie_pole, mie_scattered_green
from .modes import (
    ModeField,
    PoleSearch,
    driven_response,
    find_qnm,
    load_mode,
    save_mode,
)

__all__ = [
    "DiscreteOperator",
    "ModeField",
    "PoleSearch",
    "assemble",
    "bilinear_sample",
    "colocate",
    "curl_cells",
    "driven_response",
    "find_qnm",
    "load_mode",
    "mie_cylinder",
    "mie_pole",
    "mie_scattered_green",
    "save_mode",
]
