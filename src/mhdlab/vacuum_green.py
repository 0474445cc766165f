"""Closed-form vacuum potential on the unit strip and its energy identity.

The strip is x1 in [-1, 0] with a grounded bottom (potential zero at
x1 = -1) and prescribed normal-derivative data on the top. For one
tangential Fourier mode everything is explicit, which makes the boundary
integral xi * d1(xi) on the top versus the field energy in the strip an
exactly checkable identity: both equal pi sinh(2k)/2 per unit amplitude.

The normal trace is taken with the plus sign, d1(xi) at x1 = 0; this is
the orientation for which both sides of the identity are nonnegative for
real modes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError


@dataclass(frozen=True)
class StripPotential:
    """One tangential mode of the Laplace problem on the strip.

    xi(x1, x2) = amplitude * sinh(k (x1 + 1)) * exp(i k x2); the amplitude
    is fixed so that d1(xi) at the top matches neumann_amp.
    """

    k: float
    neumann_amp: complex
    amplitude: complex

    def xi(self, x1, x2):
        return self.amplitude * np.sinh(self.k * (np.asarray(x1) + 1.0)) * np.exp(
            1j * self.k * np.asarray(x2)
        )

    def gradient(self, x1, x2):
        x1 = np.asarray(x1)
        x2 = np.asarray(x2)
        tang = np.exp(1j * self.k * x2)
        d1 = self.amplitude * self.k * np.cosh(self.k * (x1 + 1.0)) * tang
        d2 = self.amplitude * 1j * self.k * np.sinh(self.k * (x1 + 1.0)) * tang
        return d1, d2

    def neumann_trace(self, x2):
        return self.amplitude * self.k * math.cosh(self.k) * np.exp(
            1j * self.k * np.asarray(x2)
        )


def strip_potential(k: float, neumann_amp: complex) -> StripPotential:
    """Solve the strip problem for one mode of top Neumann data."""
    if not k > 0:
        raise DomainError(
            "k must be positive: the constant mode cannot satisfy nonzero "
            "Neumann data with a grounded bottom"
        )
    amplitude = complex(neumann_amp) / (k * math.cosh(k))
    return StripPotential(k=float(k), neumann_amp=complex(neumann_amp), amplitude=amplitude)


class GreenIdentityResult(NamedTuple):
    lhs: float
    rhs: float
    relative_gap: float


def green_identity_check(
    k: float, quadrature_points: int, amplitude: float = 1.0
) -> GreenIdentityResult:
    """Boundary integral versus field energy for the real cosine mode.

    The tangential integrals are carried out exactly (they are pure
    cos^2 / sin^2 averages, each pi/k per period); the radial direction
    uses composite trapezoid on quadrature_points samples. The boundary
    side needs no radial quadrature and serves as the exact reference.
    """
    if not k > 0:
        raise DomainError("k must be positive")
    needed = max(2, math.ceil(16.0 * k / math.pi))
    if quadrature_points < needed:
        raise GridError(
            f"{quadrature_points} radial points under-resolve k={k:g}; "
            f"need at least {needed} (16 per wavelength)"
        )
    c = float(amplitude)
    lhs = math.pi * math.sinh(k) * math.cosh(k) * c * c
    x1 = np.linspace(-1.0, 0.0, int(quadrature_points))
    # per-period tangential averages: int cos^2 = int sin^2 = pi / k
    integrand = (math.pi / k) * (k * k) * c * c * np.cosh(2.0 * k * (x1 + 1.0))
    rhs = float(np.trapezoid(integrand, x1))
    gap = abs(lhs - rhs) / abs(lhs)
    return GreenIdentityResult(lhs=lhs, rhs=rhs, relative_gap=gap)
