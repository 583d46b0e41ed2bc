"""Dense complex linear algebra kernel: the Kronecker product (kron), the
Hermitian eigensolver (eigh, eigvalsh), spectral functions, partial trace,
trace norm, fidelity.

kron is the package's one Kronecker product, and eigh and eigvalsh its one
Hermitian eigendecomposition; no module calls np.kron, np.linalg.eigh or
np.linalg.eigvalsh.  The spectral functions read the spectrum that the
caller took with herm_eig or herm_eigvals; on_support and psd_check (which
require_psd raises on) are the package's only support and PSD rules.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# Shared numerical defaults; dimensions stay at desk scale (<= 64), so dense
# double-precision routines are sufficient everywhere.
SUPPORT_CUTOFF = 1e-10
PSD_TOL = 1e-9
HERM_TOL = 1e-9
# Largest |tr rho - 1| of a state or a trace-one operator.
TRACE_TOL = 1e-8


class PsdCheck(NamedTuple):
    is_psd: bool
    min_eig: float


def dagger(x):
    """Conjugate transpose."""
    return np.asarray(x).conj().T


def kron(a, b):
    """np.kron of two matrices, or of each pair in two broadcastable (..., m, n) stacks.

    One broadcast multiplication of the same two factors that np.kron takes,
    so the entries are bit-identical, without np.kron's per-call overhead.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    shape = out.shape
    return out.reshape(shape[:-4] + (shape[-4] * shape[-3], shape[-2] * shape[-1]))


def eigh(a):
    """np.linalg.eigh of one Hermitian matrix, in double precision: (w, v), w ascending.

    It calls the LAPACK gufunc that np.linalg.eigh dispatches to, on its lower
    triangle, so both outputs are bit-identical, without the wrapper's
    per-call errstate context.  The gufunc clears the FP status on success;
    on failure it fills its outputs with NaN (and numpy warns of an invalid
    value), and this raises LinAlgError as np.linalg.eigh does.
    """
    a = np.asarray(a)
    w, v = _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")
    if w.size and w[0] != w[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, v


def eigvalsh(a):
    """np.linalg.eigvalsh of one Hermitian matrix, ascending and bit-identical, as eigh."""
    a = np.asarray(a)
    w = _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")
    if w.size and w[0] != w[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def check_hermitian(m):
    """Raise if m is not square and Hermitian within HERM_TOL, or holds NaN or Inf."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # Inf - Inf is NaN; that case is reported below as non-finite, not warned.
    with np.errstate(invalid="ignore"):
        dev = np.abs(m - dagger(m)).max()
    # Written negated so that a NaN deviation fails too; any NaN or Inf entry
    # makes the deviation non-finite.
    if not dev <= HERM_TOL:
        if not np.isfinite(dev):
            raise ValueError("matrix holds a non-finite value")
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {HERM_TOL:.3e}")
    return m


def herm_eig(m):
    """Eigendecomposition (w, v) of a Hermitian matrix, eigenvalues ascending."""
    m = check_hermitian(m)
    return eigh((m + dagger(m)) / 2)


def herm_eigvals(m):
    """The ascending eigenvalues of herm_eig, without its eigenvectors."""
    m = check_hermitian(m)
    return eigvalsh((m + dagger(m)) / 2)


def on_support(w):
    """Mask of the ascending eigenvalues w (of a herm_eig) on the support: w > SUPPORT_CUTOFF."""
    return w > SUPPORT_CUTOFF


def mat_fn_psd(w, v, f):
    """f applied spectrally on the support of the PSD matrix whose herm_eig is (w, v).

    f maps an array of eigenvalues to their images.  Eigenvalues off the
    support are treated as exact zeros and map to 0, so f = 1/sqrt
    pseudo-inverts.  A spectrum that fails psd_check raises.
    """
    require_psd(w, "matrix")
    on = on_support(w)
    fw = np.zeros_like(w)
    fw[on] = f(w[on])
    out = (v * fw) @ dagger(v)
    return (out + dagger(out)) / 2


def support_projector(w, v):
    """Projector onto the eigenvectors v of the eigenvalues w on the support (a herm_eig)."""
    on = on_support(w)
    out = (v[:, on]) @ dagger(v[:, on])
    return (out + dagger(out)) / 2


def schur_sinh_ratio(x, lam):
    """x multiplied entrywise by kappa(lam_i - lam_j), kappa(w) = w / sinh w, kappa(0) = 1.

    kappa is the Fourier transform of the density (pi/2) / (cosh(pi t) + 1).
    With lam = (ln s_p - ln m_q) / 2 over eigenvalue pairs of two operators,
    the product averages their imaginary-power rotations under that density.
    With lam = (ln w) / 2 over one spectrum, kappa(lam_i - lam_j) / sqrt(w_i w_j)
    is the divided difference of log, so the Daleckii-Krein derivative of log
    is a product of this shape.
    """
    lam = np.asarray(lam, dtype=float)
    diff = lam[:, None] - lam[None, :]
    kappa = np.ones_like(diff)
    moved = diff != 0
    kappa[moved] = diff[moved] / np.sinh(diff[moved])
    return kappa * x


def partial_trace(x, dims, keep):
    """Partial trace of an operator on a bipartite space with factor dims (d1, d2).

    keep selects which factor survives: "first" returns tr_2, "second" tr_1.
    """
    d1, d2 = dims
    x = np.asarray(x)
    if x.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"shape {x.shape} does not match dims {dims}")
    x4 = x.reshape(d1, d2, d1, d2)
    if keep == "first":
        return np.einsum("ibjb->ij", x4)
    if keep == "second":
        return np.einsum("aiaj->ij", x4)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def permute_systems(x, dims, perm):
    """Reorder tensor factors of an operator: factor i of the output is factor perm[i] of the input."""
    dims = tuple(dims)
    n = len(dims)
    x = np.asarray(x).reshape(dims + dims)
    axes = tuple(perm) + tuple(p + n for p in perm)
    d = int(np.prod(dims))
    return x.transpose(axes).reshape(d, d)


def trace_norm(x):
    """Sum of the singular values."""
    return float(np.linalg.svd(np.asarray(x), compute_uv=False).sum())


def fidelity(rho, sigma):
    """Fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2 of PSD operators, with no cutoff.

    F = ||diag(sqrt r) V^dagger U diag(sqrt s)||_1^2 for the herm_eigs (r, V) and (s, U), clipped
    at 0, so no eigenvalue near a cutoff biases F by its square root.
    """
    r, v = herm_eig(rho)
    require_psd(r, "matrix")
    s, u = herm_eig(sigma)
    require_psd(s, "matrix")
    return trace_norm(np.sqrt(r.clip(0.0))[:, None] * (dagger(v) @ u) * np.sqrt(s.clip(0.0))) ** 2


def psd_check(w):
    """PSD verdict (min >= -PSD_TOL) of ascending eigenvalues w, with the min as certificate."""
    mn = float(w[0]) if w.size else 0.0
    return PsdCheck(bool(mn >= -PSD_TOL), mn)


def require_psd(w, name):
    """Raise, naming the operator, unless its ascending eigenvalues w pass psd_check."""
    if not (chk := psd_check(w)).is_psd:
        raise ValueError(f"{name} is not PSD: min eigenvalue {chk.min_eig:.3e}")


def check_density(rho, w):
    """Raise unless the Hermitian rho, with ascending eigenvalues w, is PSD with unit trace."""
    rho = np.asarray(rho)
    require_psd(w, "state")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {tr} deviates from 1 beyond {TRACE_TOL:.1e}")
    return rho


def matrix_to_json(x):
    """Encode a matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    data = [[float(v.real), float(v.imag)] for v in x.reshape(-1)]
    return {"rows": int(x.shape[0]), "cols": int(x.shape[1]), "data": data}


def _json_dim(value, key):
    """value as a dimension: a JSON integer >= 1, not a boolean, float or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{key!r} must be an integer >= 1, got {value!r}")
    return value


def matrix_from_json(obj):
    """Decode the matrix encoding produced by matrix_to_json."""
    rows, cols = _json_dim(obj["rows"], "rows"), _json_dim(obj["cols"], "cols")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.isfinite(flat).all():
        raise ValueError("matrix holds a non-finite value")
    return flat.reshape(rows, cols)
