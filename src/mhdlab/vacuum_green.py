"""Energy identity of the closed-form vacuum potential on the unit strip.

The strip is x1 in [-1, 0] with a grounded bottom (potential zero at
x1 = -1) and prescribed normal-derivative data on the top. For one
tangential Fourier mode, xi = sinh(k (x1 + 1)) cos(k x2) per unit
amplitude, everything is explicit, which makes the boundary integral
xi * d1(xi) on the top versus the field energy in the strip an exactly
checkable identity: both equal pi sinh(2k)/2 per unit amplitude.

The normal trace is taken with the plus sign, d1(xi) at x1 = 0; this is
the orientation for which both sides of the identity are nonnegative for
real modes.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .domain import _finite
from .errors import DomainError, GridError


class GreenIdentityResult(NamedTuple):
    lhs: float
    rhs: float
    relative_gap: float


def green_identity_check(k: float, quadrature_points: int) -> GreenIdentityResult:
    """Boundary integral versus field energy for the real cosine mode.

    The tangential integrals are carried out exactly (they are pure
    cos^2 / sin^2 averages, each pi/k per period); the radial direction
    uses composite trapezoid on quadrature_points samples. The boundary
    side needs no radial quadrature and serves as the exact reference.
    """
    if not 0 < 16.0 * k / math.pi < math.inf:
        raise DomainError(f"k must be positive with 16k/pi finite, got {k!r}")
    points = _finite("quadrature_points", quadrature_points)
    if not points.is_integer():
        raise DomainError(f"quadrature_points must be a whole number, got {quadrature_points!r}")
    needed = max(2, math.ceil(16.0 * k / math.pi))
    if points < needed:
        raise GridError(
            f"{quadrature_points} radial points under-resolve k={k:g}; "
            f"need at least {needed} (16 per wavelength)"
        )
    x1 = np.linspace(-1.0, 0.0, int(points))
    # per-period tangential averages: int cos^2 = int sin^2 = pi / k
    with np.errstate(over="ignore"):
        integrand = (math.pi / k) * (k * k) * np.cosh(2.0 * k * (x1 + 1.0))
        rhs = float(np.trapezoid(integrand, x1))
    if rhs == math.inf:  # pi k cosh(2k) overflows from k ~ 351.4, before lhs does
        raise DomainError(f"k={k!r} is too large: the quadrature overflows double precision")
    lhs = math.pi * math.sinh(k) * math.cosh(k)
    gap = abs(lhs - rhs) / abs(lhs)
    return GreenIdentityResult(lhs=lhs, rhs=rhs, relative_gap=gap)
