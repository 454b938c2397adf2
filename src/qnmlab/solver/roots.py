"""Small complex-plane root utilities for the pole searches.

:func:`secant_root` needs only function values.  It finds the Rayleigh
functional's root in each iterate of the QNM pole search (see
:mod:`.modes`) and the poles of the analytic cylinder series.  The pole
search shares its basin check and error messages (:func:`_check_basin`,
:func:`_exhausted`).
"""

from ..core import PoleSearchError


def _check_basin(z, z0, basin_radius, history):
    if abs(z - z0) > basin_radius:
        raise PoleSearchError(
            f"iterate {z} left the search basin of radius "
            f"{basin_radius:.3g} around {z0}; trajectory: {history}")


def _exhausted(max_iter, z0, history):
    return PoleSearchError(
        f"no root found within {max_iter} iterations near {z0}; "
        f"trajectory: {history}")


def secant_root(f, z0, rel_tol=1e-10, max_iter=40, basin_radius=None):
    """Secant iteration for a root of ``f`` near ``z0`` in the complex plane.

    The second start point is ``z0 (1 + 1e-4 (1 + i/2))``.  Stops when the
    step falls below ``rel_tol * |z|``.  Iterates leaving the disk of
    ``basin_radius`` around ``z0`` abort the search.
    """
    if basin_radius is None:
        basin_radius = 0.5 * abs(z0)
    z_prev = z0
    z = z0 * (1.0 + 1e-4 * (1.0 + 0.5j))
    f_prev = f(z_prev)
    f_cur = f(z)
    history = [z_prev, z]
    for _ in range(max_iter):
        denom = f_cur - f_prev
        if denom == 0:
            raise PoleSearchError(f"secant stalled at {z}")
        step = f_cur * (z - z_prev) / denom
        z_prev, f_prev = z, f_cur
        z = z - step
        history.append(z)
        _check_basin(z, z0, basin_radius, history)
        if abs(step) <= rel_tol * abs(z):
            return z, history
        f_cur = f(z)
    raise _exhausted(max_iter, z0, history)
