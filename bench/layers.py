"""Per-layer spans and counts for the traced run.

The traced run wraps public functions of the package from outside: every
module attribute of ``mhdlab`` that holds one of the traced functions is
replaced by a wrapper for the duration of the run and restored afterwards,
so untraced runs execute the package untouched. A span records the call's
wall time; its self time is that minus the time of traced calls made from
inside it on the same thread.
"""
from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from mhdlab import classifier, cli, config, dispersion, domain, hadamard, roots

# (module, function name) -> span name
SPANS = (
    (cli, "main", "cli.main"),
    (config, "load_config", "config.load_config"),
    (classifier, "sweep", "classifier.sweep"),
    (classifier, "classify_frozen", "classifier.classify_frozen"),
    (roots, "fit_scaling", "roots.fit_scaling"),
    (roots, "solve_dispersion", "roots.solve_dispersion"),
    (roots, "newton_refine", "roots.newton_refine"),
    (dispersion, "dispersion_eval", "dispersion.dispersion_eval"),
    (dispersion, "dispersion_scale", "dispersion.dispersion_scale"),
    (hadamard, "build_mode", "hadamard.build_mode"),
    (hadamard, "pde_residual_fd", "hadamard.pde_residual_fd"),
    (hadamard, "growth_ratio", "hadamard.growth_ratio"),
)

COMPLEX_BYTES = 16

UNITS = {
    "dispersion.eval_calls": "count",
    "dispersion.eval_us": "us",
    "dispersion.scale_calls": "count",
    "roots.solve_calls": "count",
    "roots.solve_self_ms": "ms",
    "roots.newton_calls": "count",
    "roots.newton_evals": "count",
    "roots.roots_per_candidate": "ratio",
    "classifier.classify_calls": "count",
    "classifier.classify_us": "us",
    "classifier.sweep_wait_ms": "ms",
    "classifier.fit_calls": "count",
    "classifier.fit_ms": "ms",
    "domain.states_built": "count",
    "hadamard.build_mode_ms": "ms",
    "hadamard.fd_ms": "ms",
    "hadamard.fd_mb_computed": "MB",
    "hadamard.growth_ratio_ms": "ms",
    "config.load_ms": "ms",
    "cli.self_ms": "ms",
    "cli.csv_bytes": "bytes",
    "trace.items_per_s": "1/s",
}


def fd_bytes(mode, grid) -> int:
    """Bytes of the complex field arrays pde_residual_fd samples on ``grid``:
    every plasma field on mp x mt points, xi on mm x mt (magnetic models)
    and three interface traces on mt points. Computed from sizes, not
    measured."""
    mp, mm, mt = grid.points_per_direction
    plasma = len([name for name in mode.names if name not in ("xi", "phi")])
    cells = plasma * mp * mt + 3 * mt + (mm * mt if mode.model.is_mhd else 0)
    return COMPLEX_BYTES * cells


class Tracer:
    """Per-span calls, wall and self time, parent-child call counts, and
    counts read from arguments and results. Thread-safe for spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested = defaultdict(int)  # (parent span, span) -> calls
        self.counts = defaultdict(int)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, span: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                with tracer._lock:
                    tracer.calls[span] += 1
                    tracer.total[span] += elapsed
                    tracer.self_time[span] += elapsed - frame[1]
                    tracer.nested[(parent[0] if parent else None, span)] += 1
            tracer.observe(span, args, result)
            return result

        return traced

    def observe(self, span, args, result) -> None:
        """Counts read from a call's arguments and result, outside its span."""
        if span == "roots.solve_dispersion":
            self.counts["roots_returned"] += len(result)
        elif span == "hadamard.pde_residual_fd":
            self.counts["fd_bytes"] += fd_bytes(args[0], args[1])
        elif span == "cli.main":
            argv = args[0]
            if "--out" in argv:
                self.counts["csv_bytes"] += Path(argv[argv.index("--out") + 1]).stat().st_size


@contextmanager
def installed(tracer: Tracer):
    """Replace every reference to a traced function inside the package."""
    modules = [m for name, m in sys.modules.items() if name == "mhdlab" or name.startswith("mhdlab.")]
    patched = []
    for module, attr, span in SPANS:
        original = getattr(module, attr)
        wrapper = tracer.wrap(span, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    patched.append((mod, name, original))
    post_init = domain.BasicState.__post_init__

    def counted_post_init(self):
        # states are built on the calling thread only (SweepSpec.points)
        tracer.counts["states_built"] += 1
        post_init(self)

    domain.BasicState.__post_init__ = counted_post_init
    try:
        yield tracer
    finally:
        domain.BasicState.__post_init__ = post_init
        for mod, name, original in patched:
            setattr(mod, name, original)


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, items: int, workload: str) -> dict:
    """The per-layer metrics a workload's traced passes can give.

    Counts are per item (grid point written, state classified or mode
    verified) or per call; times are self times per call.
    """
    c, s, t = tracer.calls, tracer.self_time, tracer.total
    out = {}
    if workload == "verdict_sweep":
        sweeps = c["classifier.sweep"]
        out.update(
            {
                "classifier.classify_calls": _per(c["classifier.classify_frozen"], items),
                "classifier.classify_us": _per(s["classifier.classify_frozen"], c["classifier.classify_frozen"], 1e6),
                "classifier.sweep_wait_ms": _per(
                    t["classifier.sweep"] - t["classifier.classify_frozen"], sweeps, 1e3
                ),
                "domain.states_built": _per(tracer.counts["states_built"], items),
                "config.load_ms": _per(s["config.load_config"], c["config.load_config"], 1e3),
                "cli.self_ms": _per(s["cli.main"], c["cli.main"], 1e3),
                "cli.csv_bytes": _per(tracer.counts["csv_bytes"], c["cli.main"]),
            }
        )
    elif workload == "root_fit":
        solves = c["roots.solve_dispersion"]
        newtons = c["roots.newton_refine"]
        evals = c["dispersion.dispersion_eval"]
        out.update(
            {
                "dispersion.eval_calls": _per(evals, items),
                "dispersion.eval_us": _per(s["dispersion.dispersion_eval"], evals, 1e6),
                "dispersion.scale_calls": _per(c["dispersion.dispersion_scale"], items),
                "roots.solve_calls": _per(solves, items),
                "roots.solve_self_ms": _per(
                    s["roots.solve_dispersion"] + s["roots.newton_refine"], solves, 1e3
                ),
                "roots.newton_calls": _per(newtons, solves),
                "roots.newton_evals": _per(
                    tracer.nested[("roots.newton_refine", "dispersion.dispersion_eval")], newtons
                ),
                "roots.roots_per_candidate": _per(tracer.counts["roots_returned"], newtons),
                "classifier.fit_calls": _per(c["roots.fit_scaling"], items),
                "classifier.fit_ms": _per(s["roots.fit_scaling"], c["roots.fit_scaling"], 1e3),
            }
        )
    elif workload == "mode_check":
        fd = c["hadamard.pde_residual_fd"]
        out.update(
            {
                "hadamard.build_mode_ms": _per(s["hadamard.build_mode"], c["hadamard.build_mode"], 1e3),
                "hadamard.fd_ms": _per(s["hadamard.pde_residual_fd"], fd, 1e3),
                "hadamard.fd_mb_computed": _per(tracer.counts["fd_bytes"], fd, 1e-6),
                "hadamard.growth_ratio_ms": _per(
                    s["hadamard.growth_ratio"], c["hadamard.growth_ratio"], 1e3
                ),
            }
        )
    return out
