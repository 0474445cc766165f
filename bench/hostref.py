"""Host-speed reference: one fixed computation, timed between passes.

The machine this benchmark was built on (a 2-core virtual machine on a
shared host) runs the same work up to 40% slower for minutes at a time, and
no statistic of a run's own pass times cancels that (see README.md,
"Steadiness and bounds"). So every pass is timed against this reference,
run just before and just after it in the same process: the ratio of the
two is the pass's cost in host-speed units, and a rate is reported at the
speed at which the reference takes ``REF_S`` seconds.

The reference does the three kinds of work the workloads spend their time
in: scalar complex arithmetic in the interpreter, NumPy ufuncs on small
arrays, and first-touch page faults on fresh anonymous memory. It calls
nothing in ``mhdlab``, and no allocation in it goes through malloc above
glibc's 128 KiB mmap threshold, whose dynamic adjustment would change how
the program under test gets its own large arrays.
"""
from __future__ import annotations

import mmap
import time

import numpy as np

# median reference() time on the 2-core x86-64 reference host
REF_S = 0.042

SCALAR_STEPS = 20_000
UFUNC_REPEATS = 150
UFUNC_POINTS = 4096  # 64 KiB complex temporaries
FAULT_MAPS = 32
FAULT_MAP_BYTES = 512 << 10

_X = np.linspace(0.0, 1.0, UFUNC_POINTS)


def _scalar() -> complex:
    z, w = 0j, complex(0.3, 0.7)
    for i in range(SCALAR_STEPS):
        z = z * w + complex(i, 1.0)
        z = z / (abs(z) + 1.0)
    return z


def _ufuncs() -> float:
    acc = 0.0
    for _ in range(UFUNC_REPEATS):
        b = np.exp(1j * _X) * _X
        acc += float(np.abs(b[1:] - b[:-1]).sum())
    return acc


def _page_faults() -> None:
    for _ in range(FAULT_MAPS):
        with mmap.mmap(-1, FAULT_MAP_BYTES) as m:
            pages = np.frombuffer(m, dtype=np.uint8)
            pages[:: mmap.PAGESIZE] = 1
            del pages  # a map cannot close while a view of it exists


def reference() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _scalar()
    _ufuncs()
    _page_faults()
    return time.perf_counter() - start


def warmed_reference() -> float:
    """reference() after one untimed call, which pays first-call costs."""
    reference()
    return reference()
