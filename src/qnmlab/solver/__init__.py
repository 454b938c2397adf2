"""Frequency-domain Maxwell solver: operator assembly, dipole oracle,
complex-frequency pole search for quasinormal modes, and the analytic
cylinder scattering series."""

from ..core import bilinear_sample, colocate
from .fdfd import (
    DipoleSolution,
    DiscreteOperator,
    NearToFar,
    PlaneWaveSolution,
    assemble,
    curl_cells,
    poynting_flux,
    solve_dipole,
)
from .mie import mie_cylinder, mie_pole
from .modes import (
    ModeField,
    PoleSearch,
    driven_response,
    find_qnm,
    load_mode,
    save_mode,
)

__all__ = [
    "DipoleSolution",
    "DiscreteOperator",
    "ModeField",
    "NearToFar",
    "PlaneWaveSolution",
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
    "poynting_flux",
    "save_mode",
    "solve_dipole",
]
