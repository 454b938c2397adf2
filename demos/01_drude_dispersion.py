"""
Drude permittivity and its dispersion factor
============================================

The free-electron metal of the nanorod examples: eps(w) = 1 - wp^2/(w(w+ig)).
The normalization integrals need the analytic factor
sigma(w) = (1/2w) d(eps w^2)/dw, which this script checks against a finite
difference and plots across the optical band.
"""

import numpy as np

from qnmlab import DrudeModel

mat = DrudeModel(omega_p=1.26e16, gamma_d=7e13)

##############################################################################
# Permittivity across the band: metallic (Re eps < 0) and passive
# (Im eps > 0) everywhere below the plasma frequency.

band_thz = np.linspace(150, 700, 120)
omega = 2 * np.pi * band_thz * 1e12
eps = mat.eps(omega)
print(f"eps at 415.9 THz: {mat.eps(2 * np.pi * 415.863e12):.3f}")
assert np.all(eps.imag > 0)

##############################################################################
# The dispersion factor at the complex eigenfrequency of the 10 x 80 nm rod,
# compared against a central finite difference of eps * w^2.

omega_t = 2 * np.pi * (415.863e12 - 1j * 37.176e12)
sig = mat.sigma(omega_t)
step = 1e9
fd = ((mat.eps(omega_t + step) * (omega_t + step) ** 2
       - mat.eps(omega_t - step) * (omega_t - step) ** 2)
      / (2 * step) / (2 * omega_t))
print(f"sigma(omega_tilde) analytic: {sig:.6f}")
print(f"sigma(omega_tilde) finite difference: {fd:.6f}")
assert abs(sig - fd) < 1e-6 * abs(sig)

##############################################################################
# Optional plot (saved next to this script when matplotlib is installed).

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(1, 2, figsize=(8, 3))
    ax[0].plot(band_thz, eps.real)
    ax[0].set_xlabel("frequency (THz)")
    ax[0].set_ylabel("Re eps")
    ax[1].plot(band_thz, eps.imag)
    ax[1].set_xlabel("frequency (THz)")
    ax[1].set_ylabel("Im eps")
    fig.tight_layout()
    fig.savefig("drude_dispersion.png", dpi=150)
    print("wrote drude_dispersion.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
