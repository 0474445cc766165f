"""Core value types for the frozen-coefficient interface stability analysis.

Everything here is an immutable value; analyses treat these as plain data and
never mutate them. Public constructors always validate. Library code that has
checked every field of a frozen dataclass itself may build it with assemble,
which skips __init__ and __post_init__.
"""
from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DomainError, UnsupportedModelError


def assemble(cls, fields: dict):
    """An instance of the frozen dataclass cls holding exactly the dict fields
    (all of them, in field order), copied in one dict update: no __init__, no
    __post_init__. The caller may change fields afterwards."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class ModelKind(enum.Enum):
    """Which linearized free-boundary flow is analyzed at the interface."""

    IncompressibleEuler = "IncompressibleEuler"
    CompressibleEuler = "CompressibleEuler"
    IncompressibleMHD = "IncompressibleMHD"
    CompressibleMHD = "CompressibleMHD"

    def __init__(self, value: str):
        # plain member data, read on every determinant evaluation
        self.is_mhd = value.endswith("MHD")
        self.is_compressible = value.startswith("Compressible")


# Flat names of the BasicState fields, as config keys, sweep axes and CSV
# columns; a trailing _2/_3 names a component of a tangential field.
STATE_FIELDS = (
    "rho_hat",
    "c_hat",
    "a_hat",
    "a0_hat",
    "a1_hat",
    "H_plasma_2",
    "H_plasma_3",
    "H_vacuum_2",
    "H_vacuum_3",
)


# flat name -> (attribute, component index or None): 'H_plasma_3' -> ('H_plasma', 1)
FIELD_SLOTS = {
    name: (name[:-2], int(name[-1]) - 2) if name[-1].isdigit() else (name, None)
    for name in STATE_FIELDS
}


def put_slot(fields: dict, slot, value) -> None:
    """Set one FIELD_SLOTS slot in a dict of BasicState attributes."""
    attr, index = slot
    vec = fields[attr]
    fields[attr] = value if index is None else (value, vec[1]) if index == 0 else (vec[0], value)


class Verdict(enum.Enum):
    """Stability classification of one frozen interface state."""

    IllPosed = "IllPosed"
    ExponentiallyUnstable = "ExponentiallyUnstable"
    NoHadamardGrowth = "NoHadamardGrowth"


def _finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a finite real number: {exc}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


# read once: require_mode_index runs on every determinant evaluation
_FLOAT_MAX = sys.float_info.max


def require_mode_index(n) -> None:
    """DomainError unless 1 <= n <= the largest float; written so that nan fails too."""
    if not n >= 1:
        raise DomainError(f"mode index must be >= 1, got {n}")
    if not n <= _FLOAT_MAX:
        raise DomainError(f"mode index {n} overflows a float")


def mode_indices(name: str, given) -> list:
    """The mode indices of a list as ints: a nonempty list of whole numbers,
    strictly increasing with every n >= 1, else DomainError."""
    given = list(given)
    try:
        ns = [int(n) for n in given]
    except (TypeError, ValueError, OverflowError):
        ns = None
    if not ns or ns != given or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise DomainError(
            f"{name} must be nonempty integers, strictly increasing with every n >= 1, got {given}"
        )
    return ns


@dataclass(frozen=True)
class BasicState:
    """Constant interface data of the unperturbed flow.

    Parameters
    ----------
    rho_hat : float
        Unperturbed density, > 0. The incompressible models are written in
        density-scaled variables; general rho_hat enters their determinants
        as the exact sound-speed -> infinity limit of the compressible ones.
    c_hat : float
        Sound speed, > 0. Ignored by the incompressible models.
    H_plasma : (float, float)
        Tangential plasma magnetic field (H2, H3); the normal component of
        the frozen field vanishes on the interface.
    H_vacuum : (float, float)
        Tangential vacuum magnetic field.
    a_hat : float
        Negated jump of the normal total-pressure derivative across the
        interface. a_hat > 0 means the Rayleigh-Taylor sign condition fails.
    a0_hat : float
        Normal derivative of the normal velocity at the interface.
    a1_hat : float
        Negated normal derivative of the normal vacuum field component.
    """

    rho_hat: float = 1.0
    c_hat: float = 1.0
    H_plasma: Tuple[float, float] = (0.0, 0.0)
    H_vacuum: Tuple[float, float] = (0.0, 0.0)
    a_hat: float = 0.0
    a0_hat: float = 0.0
    a1_hat: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rho_hat", _finite("rho_hat", self.rho_hat))
        object.__setattr__(self, "c_hat", _finite("c_hat", self.c_hat))
        if self.rho_hat <= 0:
            raise DomainError(f"rho_hat must be > 0, got {self.rho_hat}")
        if self.c_hat <= 0:
            raise DomainError(f"c_hat must be > 0, got {self.c_hat}")
        for name in ("H_plasma", "H_vacuum"):
            vec = getattr(self, name)
            try:
                first, second = vec[0], vec[1]
                two = len(vec) == 2
            except (TypeError, LookupError):
                two = False
            if not two:
                raise DomainError(f"{name} must have two components")
            object.__setattr__(self, name, (_finite(name, first), _finite(name, second)))
        for name in ("a_hat", "a0_hat", "a1_hat"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

    @classmethod
    def from_fields(cls, values) -> "BasicState":
        """State from flat STATE_FIELDS names; missing names keep the defaults."""
        unknown = [name for name in values if name not in FIELD_SLOTS]
        if unknown:
            raise DomainError(f"unknown state fields: {unknown}; valid: {list(STATE_FIELDS)}")
        kwargs = {f.name: f.default for f in dataclasses.fields(cls)}
        for name, value in values.items():
            put_slot(kwargs, FIELD_SLOTS[name], value)
        return cls(**kwargs)

    def fields(self) -> dict:
        """The state as a flat dict keyed by STATE_FIELDS."""
        out = {}
        for name, (attr, index) in FIELD_SLOTS.items():
            value = getattr(self, attr)
            out[name] = value if index is None else value[index]
        return out


@dataclass(frozen=True)
class Wavevector:
    """Tangential wavevector (omega2, omega3); the purely 1D case is rejected."""

    omega2: float
    omega3: float

    def __post_init__(self):
        object.__setattr__(self, "omega2", _finite("omega2", self.omega2))
        object.__setattr__(self, "omega3", _finite("omega3", self.omega3))
        if self.norm == 0.0:
            raise DomainError("zero wavevector: tangential oscillation required")

    @property
    def norm(self) -> float:
        return math.hypot(self.omega2, self.omega3)

    def unit(self) -> Tuple[float, float]:
        """Unit-normalized components; analyses work at |omega| = 1 and the
        stored vector keeps the user's scale."""
        n = self.norm
        return (self.omega2 / n, self.omega3 / n)


@dataclass(frozen=True)
class ModeRoot:
    """One temporal-frequency root of an interface determinant at index n.

    ``s`` is the frequency per unit mode index: the mode grows like
    exp(n * Re(s) * t). ``lambda_plus``/``lambda_minus`` are the flow-side and
    vacuum-side spatial exponents; Euler models have no vacuum side and store
    nan there. ``admissible`` means Re s > 0, Re lambda_plus < 0 and (when a
    vacuum side exists) Re lambda_minus > 0. ``neutral`` marks the s = 0 root,
    which is reported rather than silently dropped.
    """

    s: complex
    lambda_plus: complex
    lambda_minus: complex
    residual: float
    admissible: bool
    n: int
    neutral: bool = False

    def __post_init__(self):
        require_mode_index(self.n)
        if self.residual < 0:
            raise DomainError("residual must be nonnegative")
        if self.admissible:
            lam_minus_ok = (
                math.isnan(self.lambda_minus.real) or self.lambda_minus.real > 0
            )
            if not (self.s.real > 0 and self.lambda_plus.real < 0 and lam_minus_ok):
                raise DomainError("admissible root violates its branch conditions")


@dataclass(frozen=True)
class HadamardMode:
    """A fully determined exponential solution at mode index n.

    ``amplitudes`` holds the complex constants in the order given by
    ``names``; for magnetic models this is (q, v1, v2, v3, H1, H2, H3, xi,
    phi), for Euler models (q, v1, v2, v3, phi) with q the (total) pressure
    amplitude. ``normalization`` records which amplitude was pinned:
    "phi_unit" when the interface amplitude was set to 1, "euclidean" when
    the amplitude vector was scaled to unit norm instead.
    """

    root: ModeRoot
    amplitudes: tuple
    names: Tuple[str, ...]
    normalization: str
    model: ModelKind
    state: BasicState
    omega: Wavevector

    def amplitude(self, name: str) -> complex:
        try:
            return self.amplitudes[self.names.index(name)]
        except ValueError:
            raise UnsupportedModelError(
                f"{self.model.value} has no field {name!r}; its fields are {list(self.names)}"
            ) from None


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit Re s ~ coefficient * n**(-exponent) over n_range."""

    exponent: float
    coefficient: float
    n_range: Tuple[int, int]
    rms_log_error: float

    def __post_init__(self):
        lo, hi = self.n_range
        if hi < 10 * lo:
            raise DomainError("scaling fit must span at least one decade in n")


@dataclass(frozen=True)
class Classification:
    """Stability verdict for one frozen state.

    ``rt_sign_ok`` records whether the interface pressure-jump sign condition
    holds (a_hat < 0). ``witness`` is the tangential direction along which
    both field projections vanish, attached for ill-posed magnetic states.
    ``evidence`` carries the best numerical scaling fit when one was run.
    Results are immutable and may be shared between states: compare them
    with ==, not ``is``.
    """

    verdict: Verdict
    collinear: bool
    rt_sign_ok: bool
    witness: Optional[Wavevector] = None
    evidence: Optional[ScalingFit] = None


def w_pair(state: BasicState, omega: Wavevector) -> Tuple[float, float]:
    """Projections (w_plus, w_minus) of both tangential fields onto the
    unit-normalized wavevector."""
    u2, u3 = omega.unit()
    w_plus = state.H_plasma[0] * u2 + state.H_plasma[1] * u3
    w_minus = state.H_vacuum[0] * u2 + state.H_vacuum[1] * u3
    return (w_plus, w_minus)


def alfven_speed(state: BasicState) -> float:
    """|H_plasma| / sqrt(rho_hat); the frozen field has no normal component."""
    return math.hypot(*state.H_plasma) / math.sqrt(state.rho_hat)


def require_valid(model: ModelKind, state: BasicState) -> None:
    """Fail loudly when an Euler analysis is fed magnetic data.

    The Euler problems contain no magnetic field; silently ignoring nonzero
    H_plasma/H_vacuum/a1_hat would mask configuration mistakes.
    """
    if model.is_mhd:
        return
    if state.H_plasma != (0.0, 0.0) or state.H_vacuum != (0.0, 0.0):
        raise UnsupportedModelError(
            f"{model.value} ignores magnetic fields; set H_plasma and H_vacuum to zero"
        )
    if state.a1_hat != 0.0:
        raise UnsupportedModelError(
            f"{model.value} has no vacuum field; set a1_hat to zero"
        )
