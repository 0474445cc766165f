"""Numerical stability toolkit for plasma-vacuum interface models."""

from .classifier import SweepSpec, classify_frozen, is_collinear, numeric_classify, sweep
from .dispersion import AsymptoticRoot, mode_symbol
from .domain import (
    BasicState,
    Classification,
    HadamardMode,
    ModeRoot,
    ModelKind,
    ScalingFit,
    Verdict,
    Wavevector,
)
from .hadamard import (
    GridSpec,
    build_mode,
    evaluate_field,
    grid_for_mode,
    growth_ratio,
    pde_residual_fd,
)
from .roots import (
    dominant_root,
    fit_scaling,
    scan_s0,
    solve_dispersion,
)
from .vacuum_green import green_identity_check

__all__ = [
    "AsymptoticRoot",
    "BasicState",
    "Classification",
    "GridSpec",
    "HadamardMode",
    "ModeRoot",
    "ModelKind",
    "ScalingFit",
    "SweepSpec",
    "Verdict",
    "Wavevector",
    "build_mode",
    "classify_frozen",
    "dominant_root",
    "evaluate_field",
    "fit_scaling",
    "green_identity_check",
    "grid_for_mode",
    "growth_ratio",
    "is_collinear",
    "mode_symbol",
    "numeric_classify",
    "pde_residual_fd",
    "scan_s0",
    "solve_dispersion",
    "sweep",
]
