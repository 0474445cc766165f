"""Root completeness against an independent high-precision oracle.

bench/oracle.py writes the determinants and their cleared polynomials out
again without mhdlab and finds the polynomial roots at 60 digits, keeping
those that solve the unsquared determinant on the principal branch. Every
such root must come out of solve_dispersion once, and nothing else may,
except where a double-precision solver cannot be held to it:
- the roots that oracle.beyond_double exempts (within rounding of s = 0, or
  beside a zero of g(s) or D(s));
- a root where the radicand of g(s) vanishes: there lambda+ = 0, the mode
  does not decay, and the solver rejects the point with BranchPointError.

States whose nonzero parameters lie below ORACLE_FLOOR in magnitude are
left out. The oracle resolves roots to an absolute, not a relative, 60
digits, so a root such as sqrt(a) for a = 1e-311 comes back as 0; and a
field that small squares to 0 in double precision, which moves the
determinant the solver sees.
"""
import pytest

mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_bench_oracle, model_state_pairs, state_dict, wavevectors
from mhdlab.classifier import _witness_direction, is_collinear
from mhdlab.domain import BasicState, ModelKind, Wavevector
from mhdlab.roots import solve_dispersion

oracle = load_bench_oracle()

N_VALUES = (1, 100, 10_000, 1_000_000)
ORACLE_FLOOR = 1e-30

# collinear, so the test also solves along its witness (the direction
# classify_frozen reports); there, at n = 1, the exact root within rounding
# of s = 0 is beyond double precision, found or not
NEAR_ZERO_WITNESS = BasicState(
    rho_hat=1.4479262163637077,
    c_hat=1.6538139279987,
    H_plasma=(-0.06165501331153599, 0.3333285098495656),
    H_vacuum=(-0.2561691173252885, 1.3849396109292593),
    a_hat=1.292016053988983,
    a0_hat=-0.21225942831090716,
    a1_hat=-0.4631337798109523,
)

# ROADMAP's oracle example: collinear, with witness projections that round to
# wp = 6.9e-18 and wm = 5.6e-17 instead of 0, so at n = 1 the solver keeps the
# cubic's rounded constant term as a root -4.81e-51 where the exact one is s = 0
ORACLE_EXAMPLE = BasicState(
    a_hat=1.0,
    a0_hat=1e-16,
    H_plasma=(-0.05875219976582338, 0.12837589854262818),
    H_vacuum=(-0.4161468365471424, 0.9092974268256817),
    a1_hat=1.0,
)


def within_oracle_range(pair) -> bool:
    return all(v == 0 or abs(v) >= ORACLE_FLOOR for v in pair[1].fields().values())


def at_branch_point(model: ModelKind, sd: dict, om, roots) -> list:
    """The roots where the radicand of g(s) vanishes, at 40 digits."""
    if not model.is_compressible:
        return []
    with mpmath.workdps(oracle.EXACT_DIGITS):
        st_mp, w = oracle._to_mp(sd, oracle.projections(sd, om), mpmath.mp)
        # lambda+ = -sqrt(radicand), so an identity "sqrt" gives -radicand
        return [
            r for r in roots
            if abs(oracle.lambda_plus(model.value, st_mp, w, mpmath.mpc(r), sqrt=lambda x: x)) <= 1e-12
        ]


def assert_the_oracle_roots(model: ModelKind, state: BasicState, direction, n) -> None:
    """The solver's roots are the oracle's, but for those beyond double precision."""
    sd = state_dict(state)
    om = (direction.omega2, direction.omega3)
    found = [r.s for r in solve_dispersion(model, state, direction, n)]
    expected = oracle.oracle_roots(model.value, sd, om, n)
    exempt = oracle.beyond_double(model.value, sd, om, n, expected)
    exempt += at_branch_point(model, sd, om, expected)
    label = f"{model.value} {sd} omega={om} n={n}"
    oracle.compare_root_sets(found, expected, label, exempt)


@given(
    st.booleans().flatmap(lambda c: model_state_pairs(collinear=c)).filter(within_oracle_range),
    wavevectors(),
)
@example((ModelKind.CompressibleMHD, NEAR_ZERO_WITNESS), Wavevector(1.0, 0.0))
@settings(max_examples=15)
def test_every_oracle_root_is_found_and_nothing_else(pair, omega):
    model, state = pair
    directions = [omega]
    if model.is_mhd and is_collinear(state):
        # the direction numeric_classify fits besides the sampled ones
        directions.append(_witness_direction(state.H_plasma, state.H_vacuum))
    for direction in directions:
        for n in N_VALUES:
            assert_the_oracle_roots(model, state, direction, n)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP N")
def test_the_oracle_example_on_its_witness_finds_no_extra_root():
    model, state = ModelKind.IncompressibleMHD, ORACLE_EXAMPLE
    assert_the_oracle_roots(model, state, _witness_direction(state.H_plasma, state.H_vacuum), 1)



# seed 11's fresh draw: beside the resonance i wp / sqrt(rho) = 1e-12i the
# oracle holds -5.02e-44 + 1e-12i, which misses the exemption of the exact
# resonance roots by its real part; the solver returns only a0 / n
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP C5")
def test_a_root_beside_a_resonance_of_a_tiny_field_is_found():
    state = BasicState(
        c_hat=2.73879827511838, H_plasma=(1e-12, 0.0), a_hat=0.0, a0_hat=0.8891197251761187
    )
    assert_the_oracle_roots(ModelKind.CompressibleMHD, state, Wavevector(1.0, 0.0), 100)


# seed 41's fresh draw: the oracle's pair -5.80e-42 +- 0.23346201i sits on
# g's branch point, where |D| is inside the branch tolerance, so every polish
# near it stops; the solver returns a0 / n and the pair -4.35e-24 +- 0.24099565i
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP C5")
def test_a_pair_beside_the_branch_point_of_a_tiny_a_is_found():
    state = BasicState(
        rho_hat=2.331725041037453,
        c_hat=1.415351929068795,
        H_plasma=(0.3680000478764465, -0.41339635655736523),
        H_vacuum=(0.0, -0.0),
        a_hat=1e-16,
        a0_hat=1.5765417029733992,
        a1_hat=0.0,
    )
    assert_the_oracle_roots(ModelKind.CompressibleMHD, state, Wavevector(0.25, 0.0), 10_000)


# seed 49's fresh draw: fields of size 1e-16 and a0_hat = 1e-16; the solver
# returns the extra root 5.76e-49, flagged admissible
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP N")
def test_a_draw_of_tiny_fields_finds_no_extra_root():
    state = BasicState(
        rho_hat=2.138118815232723,
        c_hat=2.0657460232409957,
        H_plasma=(1.581790341685946e-16, 1.5583067645943085e-16),
        H_vacuum=(7.123750393395076e-17, 7.01798976435585e-17),
        a_hat=-0.99999,
        a0_hat=1e-16,
        a1_hat=1.2204887609730841,
    )
    omega = Wavevector(-1.2927916244814333, 2.824801234382548)
    assert_the_oracle_roots(ModelKind.IncompressibleMHD, state, omega, 1)


# a fresh draw on the witness of a collinear state: at n = 1 the solver keeps
# an extra root -1.75e-46 - 1.52e-64i where the exact one is s = 0
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP N")
def test_a_witness_draw_finds_no_extra_root():
    state = BasicState(
        a_hat=1.0,
        a0_hat=1.0,
        a1_hat=1.0,
        H_plasma=(8.296231623858378e-08, 9.99965585678249e-06),
        H_vacuum=(0.006222173717893784, 0.7499741892586866),
    )
    witness = _witness_direction(state.H_plasma, state.H_vacuum)
    assert (witness.omega2, witness.omega3) == (-0.9999655856782489, 0.008296231623858378)
    assert_the_oracle_roots(ModelKind.IncompressibleMHD, state, witness, 1)


# another draw on the witness of a collinear state: at n = 1 the
# solver keeps an extra root -4.18e-53 + 4.6e-69i where the exact one is s = 0
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP N")
def test_another_witness_draw_finds_no_extra_root():
    state = BasicState(
        rho_hat=1.0,
        c_hat=1.0,
        a_hat=1.0,
        a0_hat=1.0,
        a1_hat=1.0,
        H_plasma=(-7.621992293414947e-11, 6.473425173671445e-11),
        H_vacuum=(-0.7621992293414946, 0.6473425173671444),
    )
    witness = _witness_direction(state.H_plasma, state.H_vacuum)
    assert (witness.omega2, witness.omega3) == (-0.6473425173671445, -0.7621992293414946)
    assert_the_oracle_roots(ModelKind.IncompressibleMHD, state, witness, 1)
