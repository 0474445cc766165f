"""Strip potential closed form and the quadrature energy identity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhdlab.errors import DomainError, GridError
from mhdlab.vacuum_green import green_identity_check, strip_potential

# boundary integral of the unit cosine mode at k = 2*pi, from a symbolic
# integration oracle: pi * sinh(2pi) * cosh(2pi)
LHS_K_2PI = 225213.95468659514

TWO_PI = 2.0 * math.pi


class TestStripPotential:
    def test_unit_amplitude_neumann_trace(self):
        pot = strip_potential(TWO_PI, TWO_PI * math.cosh(TWO_PI))
        assert pot.amplitude == pytest.approx(1.0, rel=1e-14)
        trace = pot.neumann_trace(np.array([0.0, 0.25]))
        assert trace[0] == pytest.approx(TWO_PI * math.cosh(TWO_PI), rel=1e-13)
        # quarter period advances the tangential phase by pi/2
        assert trace[1] == pytest.approx(1j * TWO_PI * math.cosh(TWO_PI), rel=1e-13)

    def test_bottom_is_grounded_exactly(self):
        pot = strip_potential(3.0, 1.0 + 2.0j)
        x2 = np.linspace(0.0, 2.0, 17)
        assert np.all(pot.xi(-1.0, x2) == 0.0)

    def test_neumann_data_is_reproduced(self):
        pot = strip_potential(5.0, 0.3 - 0.4j)
        x2 = np.linspace(0.0, 1.0, 7)
        d1, _ = pot.gradient(0.0, x2)
        assert np.allclose(d1, pot.neumann_trace(x2), rtol=1e-13)
        assert pot.neumann_trace(0.0) == pytest.approx(0.3 - 0.4j, rel=1e-13)

    def test_laplacian_vanishes_at_second_order(self):
        pot = strip_potential(TWO_PI, TWO_PI * math.cosh(TWO_PI))

        def residual(m):
            x1 = np.linspace(-1.0, 0.0, m)
            x2 = np.linspace(0.0, 1.0, m)
            h1 = x1[1] - x1[0]
            h2 = x2[1] - x2[0]
            f = np.real(pot.xi(x1[:, None], x2[None, :]))
            lap = (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / h1**2 + (
                f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]
            ) / h2**2
            return np.max(np.abs(lap)) / np.max(np.abs(f))

        coarse, fine = residual(101), residual(201)
        assert coarse < 1.0
        assert 3.4 <= coarse / fine <= 4.6

    def test_degenerate_mode_is_rejected(self):
        with pytest.raises(DomainError):
            strip_potential(0.0, 1.0)
        with pytest.raises(DomainError):
            strip_potential(-2.0, 1.0)


class TestGreenIdentity:
    def test_boundary_side_matches_oracle(self):
        result = green_identity_check(TWO_PI, 256)
        assert result.lhs == pytest.approx(LHS_K_2PI, rel=1e-12)

    def test_gap_at_256_points(self):
        result = green_identity_check(TWO_PI, 256)
        # composite trapezoid: relative error (2kh)^2 / 12 with h = 1/255
        predicted = (2 * TWO_PI / 255) ** 2 / 12.0
        assert result.relative_gap == pytest.approx(predicted, rel=0.05)
        assert result.relative_gap < 3e-4

    def test_doubling_points_divides_gap_by_four(self):
        coarse = green_identity_check(TWO_PI, 256)
        fine = green_identity_check(TWO_PI, 511)
        assert 3.4 <= coarse.relative_gap / fine.relative_gap <= 4.6

    def test_both_sides_nonnegative_and_converging(self):
        values = [green_identity_check(TWO_PI, m) for m in (128, 256, 512, 1024)]
        for res in values:
            assert res.lhs > 0 and res.rhs > 0
        gaps = [res.relative_gap for res in values]
        assert gaps == sorted(gaps, reverse=True)

    def test_amplitude_scales_both_sides_quadratically(self):
        unit = green_identity_check(TWO_PI, 300)
        scaled = green_identity_check(TWO_PI, 300, amplitude=3.0)
        assert scaled.lhs == pytest.approx(9.0 * unit.lhs, rel=1e-13)
        assert scaled.rhs == pytest.approx(9.0 * unit.rhs, rel=1e-13)
        assert scaled.relative_gap == pytest.approx(unit.relative_gap, rel=1e-10)

    def test_under_resolved_quadrature_is_refused(self):
        with pytest.raises(GridError):
            green_identity_check(16.0 * math.pi, 64)
        with pytest.raises(DomainError):
            green_identity_check(0.0, 256)

    @settings(max_examples=30)
    @given(k=st.floats(min_value=0.5, max_value=30.0))
    def test_gap_follows_trapezoid_error_model(self, k):
        points = max(400, math.ceil(16 * k / math.pi))
        result = green_identity_check(k, points)
        h = 1.0 / (points - 1)
        assert result.relative_gap <= 1.5 * (2 * k * h) ** 2 / 12.0
        assert result.rhs == pytest.approx(result.lhs, rel=5e-3)
