"""Checks computed apart from the program under test.

Nothing here calls mhdlab: the determinants, the spatial exponent, the
verdict trichotomy and the cleared polynomials are written out again from
the model equations, so a defect in the package cannot hide behind itself.

States are plain dicts with the keys rho, c, a, a0, a1, Hp (pair), Hv (pair);
directions are pairs (omega2, omega3) of any length.

Determinants (s = frequency per unit mode index n, unit wavevector):

  IncompressibleEuler   n s^2 - a0 s - a/rho
  CompressibleEuler     n s^2 - a0 s - (a/rho) sqrt(1 + s^2/c^2)
  IncompressibleMHD     (n s - a0)(rho s^2 + wp^2) + s (n wm^2 - a - i wm a1)
  CompressibleMHD       (n s - a0)(rho s^2 + wp^2) + s (n wm^2 - a - i wm a1) g(s)

with wp, wm the plasma and vacuum field projections on the unit direction,
g(s) = sqrt(1 + s^4/D), D = (c^2 + |Hp|^2/rho) s^2 + c^2 wp^2/rho, and the
flow-side exponent lambda+ = -1, -sqrt(1 + s^2/c^2) or -g(s). All square
roots are principal.
"""
from __future__ import annotations

import cmath
import math

MODELS = ("IncompressibleEuler", "CompressibleEuler", "IncompressibleMHD", "CompressibleMHD")
MHD_MODELS = ("IncompressibleMHD", "CompressibleMHD")

ILL = "IllPosed"
EXP = "ExponentiallyUnstable"
NONE = "NoHadamardGrowth"

RESIDUAL_GATE = 1e-10
ROUNDOFF_FLOOR = 1e-13
ORDER_RANGE = (1.7, 2.3)
FIT_EXPONENT_TOL = 0.05
MP_DIGITS = 60
# an mpmath root of the cleared polynomial is a root of the unsquared
# determinant when its termwise-relative residual is below this at 60 digits;
# roots of the wrong branch leave an O(1) residual, and a double root of the
# cleared polynomial (a factor squared) comes out to about half the digits
MP_KEEP = 1e-20
ROOT_MATCH_TOL = 1e-7
DOUBLE_EPS = 2.0**-52
EXACT_DIGITS = 40
# a root this many double epsilons (times the largest root) from s = 0
# cannot be told from 0 by a companion-matrix eigenvalue solver
NEAR_ZERO_EPS = 16


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def projections(state, omega):
    """(wp, wm): both tangential fields projected on the unit direction.

    Computed once in double precision and then treated as the input of every
    determinant, the high-precision ones included: along a witness direction
    both projections vanish only up to rounding, and whether s = 0 is an
    exact root depends on the rounded values the solver saw.
    """
    norm = math.hypot(*omega)
    u2, u3 = omega[0] / norm, omega[1] / norm
    hp, hv = state["Hp"], state["Hv"]
    return hp[0] * u2 + hp[1] * u3, hv[0] * u2 + hv[1] * u3


# ---------------------------------------------------------------- verdicts

# (collinear, sign of a, a0 > 0) -> verdict: the paper's trichotomy
TRUTH_TABLE = {
    (True, 1, True): ILL,
    (True, 1, False): ILL,
    (True, 0, True): EXP,
    (True, 0, False): NONE,
    (True, -1, True): NONE,
    (True, -1, False): NONE,
    (False, 1, True): NONE,
    (False, 1, False): NONE,
    (False, 0, True): NONE,
    (False, 0, False): NONE,
    (False, -1, True): NONE,
    (False, -1, False): NONE,
}


def cross(hp, hv) -> float:
    return hp[0] * hv[1] - hp[1] * hv[0]


def collinear(model: str, hp, hv) -> bool:
    """Fluid models carry no field, so their fields count as collinear.

    Inputs are generated with |cross| either at roundoff or at least 1e-2
    times |Hp||Hv|, so any relative cutoff between the two gives the same
    answer; 1e-9 sits in the gap.
    """
    if model not in MHD_MODELS:
        return True
    scale = max(1.0, math.hypot(*hp) * math.hypot(*hv))
    return abs(cross(hp, hv)) <= 1e-9 * scale


def expected_verdict(model: str, state) -> str:
    a = state["a"]
    sign = (a > 0) - (a < 0)
    return TRUTH_TABLE[(collinear(model, state["Hp"], state["Hv"]), sign, state["a0"] > 0)]


def witness(state):
    """A direction orthogonal to the shared field axis, from the plasma side."""
    for vec in (state["Hp"], state["Hv"]):
        if math.hypot(*vec) > 0:
            return (-vec[1], vec[0])
    return (1.0, 0.0)


# ------------------------------------------------------------ determinants


def _g(state, w, s, sqrt):
    if s == 0:
        return 1  # s^4/D -> 0 as s -> 0, also when D vanishes there
    rho, c = state["rho"], state["c"]
    wp = w[0]
    cA2 = (state["Hp"][0] ** 2 + state["Hp"][1] ** 2) / rho
    D = (c * c + cA2) * s * s + c * c * wp * wp / rho
    return sqrt(1 + s**4 / D)


def determinant(model: str, state, w, s, n, sqrt=cmath.sqrt):
    """(value, termwise magnitude) of the model determinant at s, for the
    field projections w = (wp, wm).

    The magnitude is the sum of the absolute values of the expanded
    monomials, the yardstick of a relative residual.
    """
    rho, c, a, a0 = state["rho"], state["c"], state["a"], state["a0"]
    if model == "IncompressibleEuler":
        terms = (n * s * s, -a0 * s, -a / rho)
    elif model == "CompressibleEuler":
        g = sqrt(1 + (s / c) ** 2)
        terms = (n * s * s, -a0 * s, -(a / rho) * g)
    else:
        wp, wm = w
        g = 1 if model == "IncompressibleMHD" else _g(state, w, s, sqrt)
        terms = (
            n * rho * s**3,
            n * wp * wp * s,
            -a0 * rho * s * s,
            -a0 * wp * wp,
            n * wm * wm * s * g,
            -a * s * g,
            -1j * wm * state["a1"] * s * g,
        )
    return sum(terms), sum(abs(t) for t in terms)


def lambda_plus(model: str, state, w, s, sqrt=cmath.sqrt):
    if model in ("IncompressibleEuler", "IncompressibleMHD"):
        return -1
    if model == "CompressibleEuler":
        return -sqrt(1 + (s / state["c"]) ** 2)
    return -_g(state, w, s, sqrt)


def _residual_and_floor(model: str, state, w, s, n, sqrt, rel_step):
    """Relative residual at s, and eps |s F'(s)| / scale: the residual that
    rounding s to double precision alone can leave."""
    value, scale = determinant(model, state, w, s, n, sqrt)
    scale = max(scale, 1e-300)
    if s == 0:
        return abs(value) / scale, 0.0
    h = s * rel_step
    ahead = determinant(model, state, w, s + h, n, sqrt)[0]
    behind = determinant(model, state, w, s - h, n, sqrt)[0]
    slope = (ahead - behind) / (2 * h)
    return abs(value) / scale, DOUBLE_EPS * abs(s * slope) / scale


def _to_mp(state, w, mp):
    f = mp.mpf
    st = {k: f(v) for k, v in state.items() if k not in ("Hp", "Hv")}
    st["Hp"] = (f(state["Hp"][0]), f(state["Hp"][1]))
    st["Hv"] = (f(state["Hv"][0]), f(state["Hv"][1]))
    return st, tuple(f(x) for x in w)


def check_root(model: str, state, omega, n, s: complex, admissible: bool) -> None:
    """Residual gate on the unsquared determinant and the admissibility flag.

    The gate is decided in double precision when that is certain, and
    otherwise on the exact residual of the returned s, at 40 digits. Next to
    a branch point of g(s) the determinant is so steep that no
    double-precision s can meet 1e-10; there the exact residual may reach
    the floor that rounding s alone leaves, and no further.
    """
    w = projections(state, omega)
    residual, floor = _residual_and_floor(model, state, w, s, n, cmath.sqrt, 1e-7)
    if residual + 10.0 * floor > RESIDUAL_GATE:
        import mpmath

        with mpmath.workdps(EXACT_DIGITS):
            st, wm = _to_mp(state, w, mpmath.mp)
            exact, floor = _residual_and_floor(
                model, st, wm, mpmath.mpc(s), n, mpmath.sqrt, mpmath.mpf(10) ** -20
            )
            residual = float(exact)
            floor = float(floor)
    require(
        residual <= max(RESIDUAL_GATE, floor),
        f"{model} n={n} omega={omega}: root {s!r} has relative residual {residual:.3e} "
        f"(rounding floor {floor:.3e})",
    )
    want = s != 0 and s.real > 0 and lambda_plus(model, state, w, s).real < 0
    require(
        bool(admissible) == want,
        f"{model} n={n} omega={omega}: root {s!r} flagged admissible={admissible}, expected {want}",
    )


# -------------------------------------------------------- scaling-law fits


def series(model: str, state):
    """(s1, s2, s3) of the sqrt family s = s1/sqrt(n) + s2/n + s3/n^1.5.

    Along a direction where both field projections vanish every model
    reduces to n s^2 - a0 s - K G(s) with K = a/rho and G(s) = 1 (inc.) or
    1 + s^2/(2 alpha) + O(s^4), alpha = c^2 + |Hp|^2/rho (compressible).
    Matching powers of n^(-1/2) gives s1 = sqrt(K), s2 = a0/2 and
    s3 = (a0^2/4 + K^2/(2 alpha)) / (2 s1).
    """
    K = state["a"] / state["rho"]
    s1 = math.sqrt(K)
    s2 = state["a0"] / 2.0
    if model in ("CompressibleEuler", "CompressibleMHD"):
        alpha = state["c"] ** 2 + (state["Hp"][0] ** 2 + state["Hp"][1] ** 2) / state["rho"]
        curv = K * K / (2.0 * alpha)
    else:
        curv = 0.0
    s3 = (s2 * s2 + curv) / (2.0 * s1)
    return s1, s2, s3


def fit_coefficient_bound(model: str, state, n_grid) -> float:
    """Bound on |log C - log s1| for an OLS fit of log Re s on log n.

    At each n the series puts Re s_n within a factor 1 +- e(n),
    e(n) = (|s2| n^-1/2 + |s3| n^-1) / s1, of s1 n^-1/2, so log Re s_n is
    within -log(1 - e(n)) of that line. A least-squares intercept is a
    fixed linear combination sum w_i y_i of the data that reproduces a
    line exactly, so it moves by at most sum |w_i| (-log(1 - e(n_i))).
    Terms beyond s3 are O(n^-3/2) relative and left out.
    """
    s1, s2, s3 = series(model, state)
    xs = [math.log(n) for n in n_grid]
    xbar = sum(xs) / len(xs)
    sxx = sum((x - xbar) ** 2 for x in xs)
    bound = 0.0
    for n, x in zip(n_grid, xs):
        weight = 1.0 / len(xs) - xbar * (x - xbar) / sxx
        bound += abs(weight) * -math.log(1.0 - (abs(s2) / math.sqrt(n) + abs(s3) / n) / s1)
    return bound


def check_fit(model: str, state, n_grid, exponent: float, coefficient: float) -> None:
    require(
        abs(exponent - 0.5) <= FIT_EXPONENT_TOL,
        f"{model}: fitted exponent {exponent} is not within {FIT_EXPONENT_TOL} of 1/2",
    )
    s1 = series(model, state)[0]
    gap = abs(math.log(coefficient / s1))
    bound = fit_coefficient_bound(model, state, n_grid)
    require(
        gap <= bound,
        f"{model}: fitted coefficient {coefficient} vs sqrt(a/rho)={s1}: "
        f"log gap {gap:.3e} exceeds the series bound {bound:.3e}",
    )


# ------------------------------------------------------ mode verification


def check_fd_orders(coarse: dict, fine: dict, label: str) -> None:
    """Interior residuals must shrink at second order under h -> h/2.

    A pair below the roundoff floor on both grids is an analytically zero
    balance: there is no truncation error to converge.
    """
    require(set(coarse) == set(fine), f"{label}: equation sets differ")
    for name, c in coarse.items():
        f = fine[name]
        if max(c, f) < ROUNDOFF_FLOOR:
            continue
        order = math.log2(c / f) if c > 0 and f > 0 else math.nan
        require(
            ORDER_RANGE[0] <= order <= ORDER_RANGE[1],
            f"{label}: {name} residuals {c:.3e} -> {f:.3e}, order {order:.3f}",
        )


def check_boundary(boundary: dict, label: str) -> None:
    for name, value in boundary.items():
        require(value <= RESIDUAL_GATE, f"{label}: boundary {name} residual {value:.3e}")


def check_growth(log_ratios, label: str) -> None:
    require(
        all(b > a for a, b in zip(log_ratios, log_ratios[1:])),
        f"{label}: growth log-ratios {log_ratios} do not increase with n",
    )


# ----------------------------------------------- high-precision root oracle


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_add(p, q):
    size = max(len(p), len(q))
    p = [0] * (size - len(p)) + list(p)
    q = [0] * (size - len(q)) + list(q)
    return [x + y for x, y in zip(p, q)]


def cleared_polynomial(model: str, state, w, n):
    """Coefficients (highest power first) of a polynomial whose roots include
    every root of the determinant.

    The radical is moved to one side and squared: (n s^2 - a0 s)^2 =
    K^2 (1 + s^2/c^2) for CompressibleEuler, A^2 D = (Bc s)^2 (D + s^4) for
    CompressibleMHD with A = (n s - a0)(rho s^2 + wp^2), Bc = n wm^2 - a - i wm a1.
    Pass mpmath numbers in ``state`` and ``w`` for a high-precision result.
    """
    rho, c, a, a0 = state["rho"], state["c"], state["a"], state["a0"]
    if model == "IncompressibleEuler":
        return [n, -a0, -a / rho]
    if model == "CompressibleEuler":
        K = a / rho
        lhs = _poly_mul([n, -a0, 0], [n, -a0, 0])
        return _poly_add(lhs, [0, 0, -(K / c) ** 2, 0, -K * K])
    wp, wm = w
    A = _poly_mul([n, -a0], [rho, 0, wp * wp])
    Bc = n * wm * wm - a - 1j * wm * state["a1"]
    if model == "IncompressibleMHD":
        return _poly_add(A, [Bc, 0])
    hp = state["Hp"]
    D = [c * c + (hp[0] ** 2 + hp[1] ** 2) / rho, 0, c * c * wp * wp / rho]
    lhs = _poly_mul(_poly_mul(A, A), D)
    rhs = _poly_mul([Bc * Bc, 0, 0], _poly_add(D, [1, 0, 0, 0, 0]))
    return _poly_add(lhs, [-x for x in rhs])


def oracle_roots(model: str, state, omega, n) -> list:
    """Roots of the unsquared determinant on the principal branch, 60 digits."""
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(MP_DIGITS):
        st, w = _to_mp(state, projections(state, omega), mp)
        coeffs = cleared_polynomial(model, st, w, mp.mpf(n))
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        roots = []
        while len(coeffs) > 1 and coeffs[-1] == 0:
            roots.append(mp.mpc(0))
            coeffs = coeffs[:-1]
        if len(coeffs) > 1:
            # squaring leaves double roots (CompressibleEuler with a = 0 is
            # s^2 (n s - a0)^2), on which polyroots needs the extra precision
            roots.extend(mp.polyroots(coeffs, maxsteps=2000, extraprec=8 * MP_DIGITS))
        kept = []
        for r in roots:
            r = mp.mpc(r)
            try:
                value, scale = determinant(model, st, w, r, n, sqrt=mp.sqrt)
            except ZeroDivisionError:
                continue
            if scale == 0 or abs(value) <= MP_KEEP * scale:
                kept.append(complex(r))
    unique = []
    for r in kept:
        if all(abs(r - u) > 1e-9 * (1 + abs(r)) for u in unique):
            unique.append(r)
    return unique


def beyond_double(model: str, state, omega, n, expected) -> list:
    """The oracle roots that a double-precision solver cannot be held to.

    Two kinds, both decided here from the exact roots:
    - a root within rounding of s = 0 (at most NEAR_ZERO_EPS double epsilons
      times the largest root from it): the companion matrix returns it as
      about 0, where the determinant's relative residual is O(1), as along a
      witness direction whose field projections round to ~1e-17;
    - a root beside a zero of g(s) or of D(s), where rounding the root to
      double alone leaves a relative residual above a tenth of the gate (the
      rounding floor of check_root, at 40 digits).
    """
    import mpmath

    largest = max((abs(r) for r in expected), default=0.0)
    out = []
    with mpmath.workdps(EXACT_DIGITS):
        st, w = _to_mp(state, projections(state, omega), mpmath.mp)
        for r in expected:
            if abs(r) <= NEAR_ZERO_EPS * DOUBLE_EPS * largest:
                out.append(r)
                continue
            _, floor = _residual_and_floor(
                model, st, w, mpmath.mpc(r), n, mpmath.sqrt, mpmath.mpf(10) ** -20
            )
            if 10.0 * float(floor) > RESIDUAL_GATE:
                out.append(r)
    return out


def compare_root_sets(found, expected, label: str, beyond=()) -> None:
    """Every oracle root is found once, and nothing else is. Roots listed in
    ``beyond`` (see beyond_double) may be found or not."""
    def near(x, y):
        return abs(x - y) <= ROOT_MATCH_TOL * (1 + abs(y))

    missing = [r for r in expected if r not in beyond and not any(near(s, r) for s in found)]
    extra = [s for s in found if not any(near(s, r) for r in expected)]
    require(not missing and not extra, f"{label}: missing roots {missing}, extra roots {extra}")
