"""A fixed reference kernel that measures how fast the host runs right now.

The kernel mixes the two kinds of work a superchan trial is made of:
interpreter-bound Python and many small numpy/LAPACK calls (4x4 and 16x16
Hermitian eigendecompositions, products and elementwise logs).  It uses no
superchan code, so no change to the package can move it; only the host can.
Timing it beside the workload's calls lets the benchmark express throughput
in reference seconds, which the host's slow phases move far less than wall
seconds.
"""

import time

import numpy as np

# About the kernel's median time on the reference host, a 2-core x86-64 VM
# (Python 3.11.7, numpy 2.4.6 on OpenBLAS 0.3.31).  Only a scale: it turns the ratio
# of the workload's time to the kernel's time back into seconds.
REFERENCE_KERNEL_S = 0.008


def _matrices():
    rng = np.random.default_rng(20240319)
    out = []
    for d, count in ((4, 120), (16, 12)):
        for _ in range(count):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            out.append(a @ a.conj().T + np.eye(d))
    return out


_MATRICES = _matrices()


def kernel_s():
    """Wall time of one pass of the reference kernel, in s."""
    t0 = time.perf_counter()
    acc = 0.0
    for a in _MATRICES:
        w, v = np.linalg.eigh(a)
        acc += float(np.trace((v * np.log(w)) @ v.conj().T).real)
    table = {}
    for i in range(6000):
        key = i % 89
        table[key] = table.get(key, 0.0) + (i * 0.5) ** 0.5
    acc += sum(table.values())
    wall = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return wall
