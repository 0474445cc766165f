"""Command-line front end: classify, roots, sweep, hadamard, green.

Output contract: every CSV has a one-line header, floats are serialized
with 17 significant digits (round-trip exact for doubles), booleans as
true/false. Sweeps are emitted in row-major axis order, so identical
inputs give byte-identical files. hadamard's residuals.jsonl is RFC 8259
JSON, a missing spacing null; after its grid record, one refined record per
interior equation gives the residual on grid.refined() and the observed
order log2(coarse/fine), left out where both are below ORDER_FLOOR. Exit
codes: 0 success, 1 configuration or domain errors, 2 analytic/numeric
verdict conflict, 3 partial output after per-row solver errors.

Every output goes through _write_lines, which opens its file only after the
command has computed what goes in it and writes about WRITE_BLOCK lines at a
time as they are formatted. So once a file is open only the write can fail, and
a sweep holds one reference per point (sweep()'s list of mostly shared
verdicts), bodies of at most one block and one block of text, not its CSV.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

from .classifier import SweepSpec, classify_frozen, numeric_classify, sweep
from .config import Config, load_config, parse_grid
from .domain import Wavevector, require_valid
from .errors import ConfigError, ConflictError, DomainError, GridError, NotARootError
from .hadamard import (
    build_mode,
    evaluate_field,
    grid_for_mode,
    growth_ratio,
    pde_residual_fd,
)
from .roots import dominant_root, solve_dispersion
from .vacuum_green import green_identity_check

DEFAULT_N_GRID = (100, 1000, 10000)
# below this on both grids a residual is roundoff, with no truncation error to converge
ORDER_FLOOR = 1e-13
# lines joined per write of _write_lines
WRITE_BLOCK = 1024

# the roots CSV: each column and its cell for one root along omega
ROOTS_COLUMNS = {
    "n": lambda omega, root: root.n,
    "omega2": lambda omega, root: omega.omega2,
    "omega3": lambda omega, root: omega.omega3,
    "re_s": lambda omega, root: root.s.real,
    "im_s": lambda omega, root: root.s.imag,
    "re_lambda_plus": lambda omega, root: root.lambda_plus.real,
    "im_lambda_plus": lambda omega, root: root.lambda_plus.imag,
    "re_lambda_minus": lambda omega, root: root.lambda_minus.real,
    "im_lambda_minus": lambda omega, root: root.lambda_minus.imag,
    "residual": lambda omega, root: root.residual,
    "admissible": lambda omega, root: root.admissible,
    "neutral": lambda omega, root: root.neutral,
}


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    x = float(value)
    if x == 0.0:
        x = 0.0  # canonicalize the sign of zero
    return f"{x:.17g}"


def _omega_from(args, cfg: Config, section: str) -> Wavevector:
    if getattr(args, "omega", None) is not None:
        return Wavevector(args.omega[0], args.omega[1])
    sec = cfg.section(section)
    return Wavevector(sec.get("omega2", 1.0), sec.get("omega3", 0.0))


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    numeric = args.numeric or cfg.section("classify").get("numeric", False)
    conflict = None
    if not numeric:
        result = classify_frozen(cfg.model, cfg.state)
    else:  # numeric_classify classifies the state itself; its result carries the verdict
        try:
            result = numeric_classify(
                cfg.model, cfg.state, list(DEFAULT_N_GRID), [Wavevector(1.0, 0.0)]
            )
        except ConflictError as exc:
            result, conflict = exc.analytic, exc
    print(f"verdict: {result.verdict.value}")
    print(f"collinear: {fmt(result.collinear)}")
    print(f"rt_sign_ok: {fmt(result.rt_sign_ok)}")
    if result.witness is not None:
        print(f"witness: {fmt(result.witness.omega2)} {fmt(result.witness.omega3)}")
    if conflict is not None:
        raise conflict
    if numeric:
        print(f"numeric_verdict: {result.verdict.value}")
        if result.evidence is not None:
            print(f"fitted_exponent: {fmt(result.evidence.exponent)}")
            print(f"fitted_coefficient: {fmt(result.evidence.coefficient)}")
    return 0


def cmd_roots(args) -> int:
    cfg = load_config(args.config)
    n_values = args.n or cfg.section("roots").get("n", DEFAULT_N_GRID)
    omega = _omega_from(args, cfg, "roots")
    lines = [",".join(ROOTS_COLUMNS)]
    status = 0
    for n in n_values:
        try:
            roots = solve_dispersion(cfg.model, cfg.state, omega, n)
        except (ValueError, RuntimeError) as exc:
            lines.append(f"# error: n={n} {type(exc).__name__}: {exc}")
            status = 3
            continue
        for root in roots:
            lines.append(",".join(fmt(cell(omega, root)) for cell in ROOTS_COLUMNS.values()))
    _write_lines(lines, args.out)
    return status


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sec = cfg.section("sweep")
    axes = parse_grid(args.grid) if args.grid else sec.get("grid")
    if not axes:
        raise ConfigError("no sweep grid given (use --grid or [sweep] grid)")
    numeric = args.numeric or sec.get("numeric", False)
    max_points = sec.get("max_points", SweepSpec.max_points)
    spec = SweepSpec(base=cfg.state, axes=axes, max_points=max_points)
    axis_names = [name for name, _ in spec.axes]
    header = axis_names + ["verdict", "collinear"]
    if "a_hat" not in axis_names:
        header.append("a_hat")
    if numeric:
        header.append("fitted_exponent")
    if numeric:  # each point's numeric_classify result is its verdict, or its error's text
        outcomes = [_numeric_outcome(cfg.model, state) for state in spec.points()]
    else:
        outcomes = sweep(cfg.model, spec)
    # axis values are formatted once and a row's outer cells joined once, in the
    # product's row order; the rest of a line once per (verdict, collinear),
    # keyed by _value_ (Enum .value is slow)
    *outer, last = ([fmt(v) for v in values] for _, values in spec.axes)
    a_hat_cell = [] if "a_hat" in axis_names else [fmt(spec.base.a_hat)]
    # without --numeric a row goes out as one string per WRITE_BLOCK points, its
    # body (last-axis cells and tails) built once per sequence of outcome ids:
    # outcomes keeps the objects alive and sweep() repeats them in every row of
    # a row class. Bodies are dropped before they would hold over WRITE_BLOCK lines.
    pieces = [(i, last[i:i + WRITE_BLOCK]) for i in range(0, len(last), WRITE_BLOCK)]
    keep = WRITE_BLOCK // max(len(last), 1)
    tails = {}

    def tail(outcome):
        key = outcome.verdict._value_, outcome.collinear
        text = tails.get(key)
        if text is None:
            text = tails[key] = ",".join(["", key[0], fmt(key[1]), *a_hat_cell])
        return text

    def rows():
        yield ",".join(header)
        verdicts, bodies = iter(outcomes), {}
        for row in itertools.product(*outer):
            prefix = ",".join((*row, ""))
            if numeric:  # a line per point; zip stops at the last axis's end first
                for cell, outcome in zip(last, verdicts):
                    if isinstance(outcome, str):
                        point = ",".join(f"{name}={c}" for name, c in zip(axis_names, (*row, cell)))
                        yield f"# error: {point} {outcome}"
                    else:
                        fit = outcome.evidence.exponent if outcome.evidence else math.nan
                        yield f"{prefix}{cell}{tail(outcome)},{fmt(fit)}"
                continue
            for start, cells in pieces:
                chunk = list(itertools.islice(verdicts, len(cells)))
                key = start, tuple(map(id, chunk))
                body = bodies.get(key)
                if body is None:
                    if len(bodies) >= keep:
                        bodies.clear()
                    texts = {i: tail(o) for i, o in dict(zip(key[1], chunk)).items()}
                    body = bodies[key] = [c + texts[i] for c, i in zip(cells, key[1])]
                yield prefix + ("\n" + prefix).join(body)

    _write_lines(rows(), args.out)
    return 3 if numeric and any(isinstance(outcome, str) for outcome in outcomes) else 0


def _numeric_outcome(model, state):
    """A numeric sweep point's numeric_classify result, or the text of the
    solver error or conflict that stopped its fit."""
    require_valid(model, state)  # a state the model cannot take stops the sweep, as in sweep()
    try:
        return numeric_classify(model, state, list(DEFAULT_N_GRID), [Wavevector(1.0, 0.0)])
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def cmd_hadamard(args) -> int:
    cfg = load_config(args.config)
    sec = cfg.section("hadamard")
    n_list = args.n_list or sec.get("n_list", (25, 100, 400))
    t = args.t if args.t is not None else sec.get("t", 1.0)
    dump_fields = args.dump_fields or sec.get("dump_fields", False)
    omega = _omega_from(args, cfg, "hadamard")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {out_dir} ({exc})") from None

    entries = growth_ratio(cfg.model, cfg.state, omega, n_list, t)
    growth_lines = ["n,log_ratio,ratio,admissible"] + [
        ",".join(map(fmt, (e.n, e.log_ratio, e.ratio, e.admissible_found))) for e in entries
    ]
    _write_lines(growth_lines, out_dir / "growth.csv")

    mode_n = n_list[0]
    try:
        root = dominant_root(solve_dispersion(cfg.model, cfg.state, omega, mode_n))
        if root is None:
            raise NotARootError(f"no admissible mode at n={mode_n}")
        mode = build_mode(cfg.model, cfg.state, omega, root)
        grid = grid_for_mode(mode)
    except (DomainError, GridError, NotARootError) as exc:
        print(f"note: skipping field dump and residuals: {exc}", file=sys.stderr)
        return 0
    report = pde_residual_fd(mode, grid, t)
    records = [
        {"block": "interior", "equation": name, "value": value}
        for name, value in report.interior.items()
    ]
    records += [
        {"block": "boundary", "condition": name, "value": value}
        for name, value in report.boundary.items()
    ]
    spacings = [None if math.isnan(h) else h for h in report.spacings]  # RFC 8259 has no NaN
    records.append({"block": "grid", "spacings": spacings, "n": mode_n, "t": t})
    fine = pde_residual_fd(mode, grid.refined(), t).interior
    for name, coarse in report.interior.items():
        record = {"block": "refined", "equation": name, "value": fine[name]}
        if max(coarse, fine[name]) >= ORDER_FLOOR:
            record["order"] = math.log2(coarse / fine[name])
        records.append(record)
    _write_lines([json.dumps(record) for record in records], out_dir / "residuals.jsonl")
    if dump_fields:
        _dump_fields(mode, grid, t, out_dir)
    return 0


def _dump_fields(mode, grid, t, out_dir: Path) -> None:
    sample = evaluate_field(mode, grid, t)
    suffix = "_log" if sample.log_magnitude else ""

    def block_to_csv(x1, block, path):
        names = sorted(block)
        cols = [block[name] if sample.log_magnitude else block[name].real for name in names]

        def rows():
            yield ",".join(["x1", "x2"] + [name + suffix for name in names])
            for i, xv in enumerate(x1):
                for j, tv in enumerate(sample.tangent):
                    yield ",".join(map(fmt, [xv, tv] + [col[i, j] for col in cols]))

        _write_lines(rows(), path)

    block_to_csv(sample.x1_plasma, sample.plasma, out_dir / "fields_plasma.csv")
    if sample.x1_vacuum is not None and sample.vacuum:
        block_to_csv(sample.x1_vacuum, sample.vacuum, out_dir / "fields_vacuum.csv")


def cmd_green(args) -> int:
    result = green_identity_check(args.k, args.points)
    print(f"lhs = {fmt(result.lhs)}")
    print(f"rhs = {fmt(result.rhs)}")
    print(f"relative_gap = {fmt(result.relative_gap)}")
    return 0


def _write_lines(lines, out) -> None:
    """Write an iterable of lines to the file out, or to stdout if out is empty,
    as "\n".join(lines) + "\n" (an empty iterable writes "\n"): the CLI's one
    writer. An item may hold several lines; a write goes out at the first item
    that brings its block to WRITE_BLOCK lines or more, so no more than about
    one block of the output is held as text at once."""
    if not out:
        _write_blocks(lines, sys.stdout)
        return
    try:
        with open(out, "w") as stream:
            _write_blocks(lines, stream)
    except OSError as exc:
        raise ConfigError(f"output not writable: {out} ({exc})") from None


def _write_blocks(items, stream) -> None:
    block, size, wrote = [], 0, False
    for item in items:
        block.append(item)
        size += item.count("\n") + 1
        if size >= WRITE_BLOCK:
            stream.write("\n".join(block) + "\n")
            block, size, wrote = [], 0, True
    if block or not wrote:  # no lines at all write "\n"
        stream.write("\n".join(block) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdlab",
        description="Stability toolkit for plasma-vacuum interface models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="well-posedness verdict for one state")
    p.add_argument("config")
    p.add_argument("--numeric", action="store_true", help="confirm with scaling fits")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("roots", help="dispersion roots as CSV")
    p.add_argument("config")
    p.add_argument("--n", type=int, nargs="+", help="mode indices (default 100 1000 10000)")
    p.add_argument("--omega", type=float, nargs=2, metavar=("O2", "O3"))
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("sweep", help="stability map over a parameter grid")
    p.add_argument("config")
    p.add_argument("--grid", help="axes, e.g. 'a_hat=-2:2:11;a0_hat=0:1:5'")
    p.add_argument("--jobs", type=int, help="accepted and ignored; sweeps run serially")
    p.add_argument("--numeric", action="store_true", help="attach fitted exponents")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hadamard", help="mode growth table, residuals, field dumps")
    p.add_argument("config")
    p.add_argument("--n-list", type=int, nargs="+", dest="n_list")
    p.add_argument("--t", type=float, help="evaluation time (default 1)")
    p.add_argument("--omega", type=float, nargs=2, metavar=("O2", "O3"))
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--dump-fields", action="store_true", dest="dump_fields")
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("green", help="strip energy identity check")
    p.add_argument("--k", type=float, default=2.0 * math.pi)
    p.add_argument("--points", type=int, default=256)
    p.set_defaults(func=cmd_green)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConflictError as exc:
        print(f"conflict: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, GridError, NotARootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
