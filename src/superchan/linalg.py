"""Dense complex linear algebra kernel: spectral functions, partial trace, norms, fidelity."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Shared numerical defaults; dimensions stay at desk scale (<= 64), so dense
# double-precision routines are sufficient everywhere.
SUPPORT_CUTOFF = 1e-10
PSD_TOL = 1e-9
HERM_TOL = 1e-9


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class PsdCheck(NamedTuple):
    is_psd: bool
    min_eig: float


def dagger(x):
    """Conjugate transpose."""
    return np.asarray(x).conj().T


def check_hermitian(m, tol=HERM_TOL):
    """Raise if m is not square and Hermitian within tol, or holds NaN or Inf."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - dagger(m)).max()
    # Written negated so that a NaN deviation fails too; any NaN or Inf entry
    # makes the deviation non-finite.
    if not dev <= tol:
        if not np.isfinite(dev):
            raise ValueError("matrix holds a non-finite value")
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} > {tol:.3e}")
    return m


def herm_eig(m, tol=HERM_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    m = check_hermitian(m, tol)
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    return SpectralDecomposition(w, v)


def _fn_table(fn, alpha):
    if fn == "log2":
        return np.log2
    if fn == "sqrt":
        return np.sqrt
    if fn == "inv_sqrt":
        return lambda w: 1.0 / np.sqrt(w)
    if fn == "exp2":
        return np.exp2
    if fn == "pow":
        if alpha is None:
            raise ValueError("fn 'pow' requires alpha")
        return lambda w: w**alpha
    raise ValueError(f"unknown spectral function {fn!r}")


def mat_fn_psd(p, fn, alpha=None, cutoff=SUPPORT_CUTOFF, psd_tol=PSD_TOL):
    """Apply a scalar function spectrally to a PSD matrix on its support.

    Eigenvalues below cutoff are treated as exact zeros: log2/pow/sqrt
    contribute nothing there and inv_sqrt pseudo-inverts.  Eigenvalues below
    -psd_tol raise.
    """
    w, v = herm_eig(p)
    f = _fn_table(fn, alpha)
    if fn == "exp2":
        # exp2 is total on Hermitian input; no PSD gate, no support cut.
        fw = np.exp2(w)
    else:
        if w[0] < -psd_tol:
            raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
        w = np.clip(w, 0.0, None)
        on_support = w > cutoff
        fw = np.zeros_like(w)
        fw[on_support] = f(w[on_support])
    out = (v * fw) @ dagger(v)
    return (out + dagger(out)) / 2


def mat_sqrt_psd(p, cutoff=SUPPORT_CUTOFF):
    return mat_fn_psd(p, "sqrt", cutoff=cutoff)


def mat_inv_sqrt_psd(p, cutoff=SUPPORT_CUTOFF):
    return mat_fn_psd(p, "inv_sqrt", cutoff=cutoff)


def mat_log2_psd(p, cutoff=SUPPORT_CUTOFF):
    return mat_fn_psd(p, "log2", cutoff=cutoff)


def mat_pow_psd(p, alpha, cutoff=SUPPORT_CUTOFF):
    return mat_fn_psd(p, "pow", alpha=alpha, cutoff=cutoff)


def support_projector(p, cutoff=SUPPORT_CUTOFF):
    """Projector onto the support (eigenvalues > cutoff) of a PSD matrix."""
    w, v = herm_eig(p)
    on = w > cutoff
    out = (v[:, on]) @ dagger(v[:, on])
    return (out + dagger(out)) / 2


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


def partial_trace_multi(x, dims, keep):
    """Trace out all factors not listed in keep; keep is an ordered index tuple."""
    dims = tuple(dims)
    n = len(dims)
    x = np.asarray(x).reshape(dims + dims)
    keep = tuple(keep)
    traced = [i for i in range(n) if i not in keep]
    for off, i in enumerate(sorted(traced, reverse=True)):
        x = np.trace(x, axis1=i, axis2=i + n - off)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    # np.trace above preserves the relative order of the kept factors.
    return x.reshape(d, d)


def permute_systems(x, dims, perm):
    """Reorder tensor factors of an operator: factor i of the output is factor perm[i] of the input."""
    dims = tuple(dims)
    n = len(dims)
    x = np.asarray(x).reshape(dims + dims)
    axes = tuple(perm) + tuple(p + n for p in perm)
    d = int(np.prod(dims))
    return x.transpose(axes).reshape(d, d)


def permutation_unitary(dims, perm):
    """Unitary sending |x_0,...,x_{n-1}> to |x_{perm[0]},...,x_{perm[n-1]}>."""
    dims = tuple(dims)
    d = int(np.prod(dims))
    new_idx = np.arange(d).reshape(dims).transpose(tuple(perm)).reshape(-1)
    return np.eye(d)[new_idx]


def tensor(*ops):
    """Kronecker product of one or more matrices."""
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op))
    return out


def norms(x):
    """Trace norm, Frobenius norm, and operator norm of a matrix."""
    s = np.linalg.svd(np.asarray(x), compute_uv=False)
    return {
        "trace_norm": float(s.sum()),
        "frobenius": float(np.sqrt((s**2).sum())),
        "op_norm": float(s[0]) if s.size else 0.0,
    }


def trace_norm(x):
    return norms(x)["trace_norm"]


def fidelity(rho, sigma, psd_tol=PSD_TOL):
    """Fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2 of PSD operators."""
    a = mat_sqrt_psd(rho, cutoff=0.0)
    b = mat_sqrt_psd(sigma, cutoff=0.0)
    val = trace_norm(a @ b) ** 2
    return max(val, 0.0)


def psd_check(x, tol=PSD_TOL):
    """PSD verdict with the min eigenvalue as certificate."""
    w, _ = herm_eig(x)
    mn = float(w[0]) if w.size else 0.0
    return PsdCheck(bool(mn >= -tol), mn)


def check_density(rho, trace_tol=1e-8, psd_tol=PSD_TOL):
    """Raise unless rho is a density operator (Hermitian, PSD, unit trace)."""
    rho = check_hermitian(rho)
    chk = psd_check(rho, psd_tol)
    if not chk.is_psd:
        raise ValueError(f"state is not PSD: min eigenvalue {chk.min_eig:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"state trace {tr} deviates from 1 beyond {trace_tol:.1e}")
    return rho


def matrix_to_json(x):
    """Encode a matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    data = [[float(v.real), float(v.imag)] for v in x.reshape(-1)]
    return {"rows": int(x.shape[0]), "cols": int(x.shape[1]), "data": data}


def matrix_from_json(obj):
    """Decode the matrix encoding produced by matrix_to_json."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.isfinite(flat).all():
        raise ValueError("matrix holds a non-finite value")
    return flat.reshape(rows, cols)
