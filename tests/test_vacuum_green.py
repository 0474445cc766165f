"""The strip potential's quadrature energy identity."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from mhdlab.errors import DomainError, GridError
from mhdlab.vacuum_green import green_identity_check

# boundary integral of the unit cosine mode at k = 2*pi, from a symbolic
# integration oracle: pi * sinh(2pi) * cosh(2pi)
LHS_K_2PI = 225213.95468659514

TWO_PI = 2.0 * math.pi


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

    def test_under_resolved_quadrature_is_refused(self):
        with pytest.raises(GridError):
            green_identity_check(16.0 * math.pi, 64)
        with pytest.raises(DomainError):
            green_identity_check(0.0, 256)

    @pytest.mark.parametrize("k", [math.inf, 1e308, math.nan, -1.0])
    def test_k_without_a_finite_point_count_is_a_domain_error(self, k):
        # 16k/pi overflows for k = 1e308; math.ceil of it would raise OverflowError
        with pytest.raises(DomainError, match="16k/pi finite"):
            green_identity_check(k, 256)

    # pi sinh(2k)/2 overflows above k ~ 355, the quadrature's pi k cosh(2k)
    # a little earlier, near k = 351.4; k = 351 must not raise too early
    @pytest.mark.parametrize(
        "k, points, overflows", [(351.0, 3000, False), (351.5, 3000, True), (400.0, 3000, True), (800.0, 5000, True)]
    )
    def test_k_overflows_at_the_quadrature_limit(self, k, points, overflows):
        if overflows:
            with pytest.raises(DomainError, match="overflows double precision"):
                green_identity_check(k, points)
        else:
            result = green_identity_check(k, points)
            assert math.isfinite(result.lhs) and math.isfinite(result.rhs)

    @settings(max_examples=30)
    @given(k=st.floats(min_value=0.5, max_value=30.0))
    def test_gap_follows_trapezoid_error_model(self, k):
        points = max(400, math.ceil(16 * k / math.pi))
        result = green_identity_check(k, points)
        h = 1.0 / (points - 1)
        assert result.relative_gap <= 1.5 * (2 * k * h) ** 2 / 12.0
        assert result.rhs == pytest.approx(result.lhs, rel=5e-3)
