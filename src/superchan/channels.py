"""Quantum channels as Choi/Kraus data with cached certification flags.

Choi operators are unnormalized, Chat = sum_ij e_ij (x) N(e_ij), and live on
input (x) output; the normalized variant Chat/dim_in is exposed separately.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    PSD_TOL,
    SUPPORT_CUTOFF,
    dagger,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    permute_systems,
    psd_check,
)

TP_TOL = 1e-10
KRAUS_CHOI_TOL = 1e-10
COVARIANCE_TOL = 1e-8


class Flag(NamedTuple):
    """Tri-state certificate: status in {yes, no, unverified} plus evidence."""

    status: str
    certificate: float


class ChannelFlags(NamedTuple):
    cp: Flag
    tp: Flag
    unital: Flag
    subunital: Flag


UNVERIFIED = ChannelFlags(
    Flag("unverified", np.nan),
    Flag("unverified", np.nan),
    Flag("unverified", np.nan),
    Flag("unverified", np.nan),
)


class TeleCovariantSpec(NamedTuple):
    """Finite unitary group representations on input and output spaces."""

    reps_in: tuple
    reps_out: tuple

    @property
    def group_size(self):
        return len(self.reps_in)


@dataclass(frozen=True, eq=False)
class Channel:
    dim_in: int
    dim_out: int
    choi: np.ndarray
    kraus: Optional[tuple] = None
    flags: ChannelFlags = UNVERIFIED
    telecov: Optional[TeleCovariantSpec] = None

    @property
    def normalized_choi(self):
        return self.choi / self.dim_in


class ThermalMap(NamedTuple):
    hamiltonian: np.ndarray
    beta: float


def certify_flags(choi, dim_in, dim_out, tp_tol=TP_TOL, psd_tol=PSD_TOL):
    """Certify cp/tp/unital/subunital from the unnormalized Choi operator."""
    cp_chk = psd_check(choi, tol=psd_tol)
    cp = Flag("yes" if cp_chk.is_psd else "no", cp_chk.min_eig)
    tr_out = partial_trace(choi, (dim_in, dim_out), "first")
    tp_res = float(np.linalg.norm(tr_out - np.eye(dim_in)))
    tp = Flag("yes" if tp_res <= tp_tol else "no", tp_res)
    tr_in = partial_trace(choi, (dim_in, dim_out), "second")
    un_res = float(np.linalg.norm(tr_in - np.eye(dim_out)))
    unital = Flag("yes" if un_res <= tp_tol else "no", un_res)
    sub_chk = psd_check(np.eye(dim_out) - tr_in, tol=psd_tol)
    subunital = Flag("yes" if sub_chk.is_psd else "no", sub_chk.min_eig)
    return ChannelFlags(cp, tp, unital, subunital)


def _choi_from_kraus(kraus, dim_in, dim_out):
    choi = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=complex)
    for k in kraus:
        v = np.asarray(k, dtype=complex).T.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def channel_from_kraus(kraus):
    """Build a channel from dim_out x dim_in Kraus operators."""
    kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    dim_out, dim_in = kraus[0].shape
    if any(k.shape != (dim_out, dim_in) for k in kraus):
        raise ValueError("inconsistent Kraus shapes")
    choi = _choi_from_kraus(kraus, dim_in, dim_out)
    flags = certify_flags(choi, dim_in, dim_out)
    return Channel(dim_in, dim_out, choi, kraus, flags)


def kraus_from_choi(choi, dim_in, dim_out, cutoff=SUPPORT_CUTOFF):
    """Extract a minimal Kraus set from a PSD Choi operator."""
    w, v = herm_eig(choi)
    if w[0] < -PSD_TOL:
        raise ValueError(f"Choi is not PSD: min eigenvalue {w[0]:.3e}")
    kraus = []
    for i in range(len(w)):
        if w[i] > cutoff:
            kraus.append(np.sqrt(w[i]) * v[:, i].reshape(dim_in, dim_out).T)
    return tuple(kraus)


def channel_from_choi(choi, dim_in, dim_out, normalized=False):
    """Build a channel from its Choi operator (Kraus extracted when CP)."""
    choi = np.asarray(choi, dtype=complex)
    if choi.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ValueError("Choi shape does not match dim_in * dim_out")
    if normalized:
        choi = choi * dim_in
    flags = certify_flags(choi, dim_in, dim_out)
    kraus = kraus_from_choi(choi, dim_in, dim_out) if flags.cp.status == "yes" else None
    return Channel(dim_in, dim_out, choi, kraus, flags)


def _check_kraus_choi(n):
    rebuilt = _choi_from_kraus(n.kraus, n.dim_in, n.dim_out)
    err = np.linalg.norm(rebuilt - n.choi)
    if err > KRAUS_CHOI_TOL:
        raise ValueError(f"Kraus list does not reproduce Choi: residual {err:.3e}")


def apply(n, x):
    """Apply the channel to a dim_in square matrix via its Choi operator."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n.dim_in, n.dim_in):
        raise ValueError("input dimension mismatch")
    c4 = n.choi.reshape(n.dim_in, n.dim_out, n.dim_in, n.dim_out)
    return np.einsum("ij,ibjc->bc", x, c4)


def apply_adjoint(n, y):
    """Apply the Hilbert-Schmidt adjoint map to a dim_out square matrix."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (n.dim_out, n.dim_out):
        raise ValueError("input dimension mismatch")
    c4 = n.choi.reshape(n.dim_in, n.dim_out, n.dim_in, n.dim_out)
    return np.einsum("bc,ibjc->ij", y, c4.conj())


def adjoint(n):
    """Hilbert-Schmidt adjoint as a channel from dim_out to dim_in."""
    c4 = n.choi.reshape(n.dim_in, n.dim_out, n.dim_in, n.dim_out)
    adj_choi = c4.conj().transpose(1, 0, 3, 2).reshape(n.choi.shape)
    kraus = tuple(dagger(k) for k in n.kraus) if n.kraus is not None else None
    flags = certify_flags(adj_choi, n.dim_out, n.dim_in)
    out = Channel(n.dim_out, n.dim_in, adj_choi, kraus, flags)
    if kraus is not None:
        _check_kraus_choi(out)
    return out


def identity_channel(dim):
    return channel_from_kraus([np.eye(dim)])


def depolarizing_r(dim_in, dim_out):
    """Completely depolarizing map X -> tr(X) 1; trace preserving only if dim_out = 1."""
    kraus = []
    for b in range(dim_out):
        for i in range(dim_in):
            k = np.zeros((dim_out, dim_in), dtype=complex)
            k[b, i] = 1.0
            kraus.append(k)
    return channel_from_kraus(kraus)


def depolarizing_r_tilde(dim_in, dim_out):
    """Trace-preserving variant X -> tr(X) 1 / dim_out."""
    r = depolarizing_r(dim_in, dim_out)
    scale = 1.0 / np.sqrt(dim_out)
    return channel_from_kraus([scale * k for k in r.kraus])


def replacer_channel(sigma0, dim_in):
    """Channel X -> tr(X) sigma0 for a fixed state sigma0."""
    sigma0 = np.asarray(sigma0, dtype=complex)
    dim_out = sigma0.shape[0]
    choi = np.kron(np.eye(dim_in), sigma0)
    return channel_from_choi(choi, dim_in, dim_out)


def thermal_map(spec):
    """Completely thermalizing map X -> tr(X) exp(-beta H), base-e exponential."""
    if spec.beta < 0:
        raise ValueError("beta must be nonnegative")
    h = np.asarray(spec.hamiltonian, dtype=complex)
    w, v = herm_eig(h)
    if w[0] < -PSD_TOL:
        raise ValueError("hamiltonian must have lowest eigenvalue >= 0")
    tau = (v * np.exp(-spec.beta * w)) @ dagger(v)
    tau = (tau + dagger(tau)) / 2
    dim = h.shape[0]
    return channel_from_choi(np.kron(np.eye(dim), tau), dim, dim)


def weyl_heisenberg_unitaries(dim):
    """The dim^2 discrete shift-and-phase unitaries on a dim-level system."""
    shift = np.roll(np.eye(dim), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    out = []
    for a in range(dim):
        for b in range(dim):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return tuple(out)


def weyl_heisenberg_spec(dim):
    u = weyl_heisenberg_unitaries(dim)
    return TeleCovariantSpec(u, u)


def check_telecov_spec(spec, unitary_tol=1e-10, twirl_tol=1e-8):
    """Validate unitarity and the one-design twirl condition on the input reps."""
    if len(spec.reps_in) != len(spec.reps_out):
        raise ValueError("reps_in and reps_out must have equal length")
    for u in list(spec.reps_in) + list(spec.reps_out):
        d = u.shape[0]
        if np.linalg.norm(dagger(u) @ u - np.eye(d)) > unitary_tol:
            raise ValueError("representation element is not unitary")
    dim = spec.reps_in[0].shape[0]
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            tw = sum(u @ e @ dagger(u) for u in spec.reps_in) / spec.group_size
            target = (1.0 if i == j else 0.0) * np.eye(dim) / dim
            if np.linalg.norm(tw - target) > twirl_tol:
                raise ValueError("input representation fails the twirl condition")


def telecov_channel(spec, base):
    """Group-twirl a base channel into a covariant one, N o U_g = V_g o N."""
    check_telecov_spec(spec)
    din, dout = base.dim_in, base.dim_out
    if spec.reps_in[0].shape[0] != din or spec.reps_out[0].shape[0] != dout:
        raise ValueError("representation dimensions do not match the base channel")
    choi = np.zeros_like(base.choi)
    for u, v in zip(spec.reps_in, spec.reps_out):
        # Choi of V_g^dag o base o U_g; averaging these gives the covariant twirl.
        twisted = np.kron(u.T, dagger(v)) @ base.choi @ np.kron(u.conj(), v)
        choi += twisted / spec.group_size
    out = channel_from_choi(choi, din, dout)
    res = covariance_residual(spec, out)
    if res > COVARIANCE_TOL:
        raise ValueError(f"twirled channel fails covariance: residual {res:.3e}")
    return Channel(out.dim_in, out.dim_out, out.choi, out.kraus, out.flags, telecov=spec)


def covariance_residual(spec, n):
    """Max Choi-level residual of N o U_g = V_g o N over the group."""
    res = 0.0
    for u, v in zip(spec.reps_in, spec.reps_out):
        lhs = np.kron(u.T, np.eye(n.dim_out)) @ n.choi @ np.kron(u.conj(), np.eye(n.dim_out))
        rhs = np.kron(np.eye(n.dim_in), v) @ n.choi @ np.kron(np.eye(n.dim_in), dagger(v))
        res = max(res, float(np.linalg.norm(lhs - rhs)))
    return res


def haar_isometry(rows, cols, rng):
    """Haar-distributed isometry via QR of a complex Gaussian matrix."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_channel(dim_in, dim_out, env_dim, seed):
    """CPTP channel from a Haar-random Stinespring isometry into out (x) env."""
    if env_dim < 1:
        raise ValueError("env_dim must be >= 1")
    if dim_out * env_dim < dim_in:
        raise ValueError("dim_out * env_dim must be >= dim_in")
    rng = np.random.default_rng(seed)
    v = haar_isometry(dim_out * env_dim, dim_in, rng)
    blocks = v.reshape(dim_out, env_dim, dim_in)
    return channel_from_kraus([blocks[:, e, :] for e in range(env_dim)])


def channel_inner_product(n, m):
    """Hilbert-Schmidt inner product of the unnormalized Choi operators."""
    if (n.dim_in, n.dim_out) != (m.dim_in, m.dim_out):
        raise ValueError("channel dimensions do not match")
    return complex(np.trace(dagger(n.choi) @ m.choi))


def compose(n2, n1):
    """Composition n2 o n1 (apply n1 first)."""
    if n1.dim_out != n2.dim_in:
        raise ValueError("dim_out of the inner channel must match dim_in of the outer")
    din, dmid, dout = n1.dim_in, n1.dim_out, n2.dim_out
    c1 = n1.choi.reshape(din, dmid, din, dmid)
    c2 = n2.choi.reshape(dmid, dout, dmid, dout)
    choi = np.einsum("ibjc,bdce->idje", c1, c2).reshape(din * dout, din * dout)
    kraus = None
    if n1.kraus is not None and n2.kraus is not None:
        kraus = tuple(k2 @ k1 for k2 in n2.kraus for k1 in n1.kraus)
    flags = certify_flags(choi, din, dout)
    out = Channel(din, dout, choi, kraus, flags)
    if kraus is not None:
        _check_kraus_choi(out)
    return out


def tensor_specs(s1, s2):
    """Product-group tele-covariance spec with elementwise tensor unitaries."""
    reps_in = tuple(np.kron(u1, u2) for u1 in s1.reps_in for u2 in s2.reps_in)
    reps_out = tuple(np.kron(v1, v2) for v1 in s1.reps_out for v2 in s2.reps_out)
    return TeleCovariantSpec(reps_in, reps_out)


def tensor_channels(n, m):
    """Tensor product channel on the tensor input/output spaces."""
    din = n.dim_in * m.dim_in
    dout = n.dim_out * m.dim_out
    big = np.kron(n.choi, m.choi)
    choi = permute_systems(big, (n.dim_in, n.dim_out, m.dim_in, m.dim_out), (0, 2, 1, 3))
    kraus = None
    if n.kraus is not None and m.kraus is not None:
        kraus = tuple(np.kron(k, l) for k in n.kraus for l in m.kraus)
    flags = certify_flags(choi, din, dout)
    spec = None
    if n.telecov is not None and m.telecov is not None:
        spec = tensor_specs(n.telecov, m.telecov)
    out = Channel(din, dout, choi, kraus, flags, telecov=spec)
    if kraus is not None:
        _check_kraus_choi(out)
    return out


def is_cptp(n):
    return n.flags.cp.status == "yes" and n.flags.tp.status == "yes"


def channel_to_json(n):
    if n.kraus is not None:
        return {
            "dim_in": n.dim_in,
            "dim_out": n.dim_out,
            "kraus": [matrix_to_json(k) for k in n.kraus],
        }
    return {
        "dim_in": n.dim_in,
        "dim_out": n.dim_out,
        "choi": matrix_to_json(n.choi),
        "normalized": False,
    }


def channel_from_json(obj):
    if "kraus" in obj:
        kraus = [matrix_from_json(k) for k in obj["kraus"]]
        n = channel_from_kraus(kraus)
        if n.dim_in != obj["dim_in"] or n.dim_out != obj["dim_out"]:
            raise ValueError("declared dimensions do not match Kraus shapes")
        return n
    if "choi" in obj:
        return channel_from_choi(
            matrix_from_json(obj["choi"]),
            obj["dim_in"],
            obj["dim_out"],
            normalized=bool(obj.get("normalized", False)),
        )
    raise ValueError("channel JSON needs either 'kraus' or 'choi'")
