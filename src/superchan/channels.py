"""Quantum channels as Choi/Kraus data with certification flags computed on first read.

Choi operators are unnormalized, Chat = sum_ij e_ij (x) N(e_ij), and live on
input (x) output; the normalized variant Chat/dim_in is exposed separately.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    PSD_TOL,
    SUPPORT_CUTOFF,
    _json_dim,
    check_hermitian,
    dagger,
    eigvalsh,
    herm_eig,
    kron,
    matrix_from_json,
    matrix_to_json,
    permute_systems,
    psd_check,
)

TP_TOL = 1e-10
COVARIANCE_TOL = 1e-8
# check_telecov_spec: largest ||u^dag u - 1|| of a representation element (and
# random_isometry_super of each pre isometry), and largest deviation of the
# input twirl of a basis matrix from its one-design value.
UNITARY_TOL = 1e-10
TWIRL_TOL = 1e-8


class Flag(NamedTuple):
    """Certificate: status in {yes, no} plus evidence."""

    status: str
    certificate: float


class ChannelFlags(NamedTuple):
    cp: Flag
    tp: Flag
    unital: Flag


class TeleCovariantSpec(NamedTuple):
    """Finite unitary group representations on input and output spaces.

    Each side is a sequence of g square matrices: a tuple of arrays, or a
    (g, d, d) stack as the constructors below build.
    """

    reps_in: tuple
    reps_out: tuple

    @property
    def group_size(self):
        return len(self.reps_in)


class _on_first_read:
    """functools.cached_property minus its Python 3.11 lock, which would serialize threads."""

    def __init__(self, fn):
        self.fn = fn

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class Channel:
    """A map given by its Choi operator, checked Hermitian and finite when built."""

    dim_in: int
    dim_out: int
    choi: np.ndarray
    given_kraus: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.choi.shape != (self.dim_in * self.dim_out,) * 2:
            raise ValueError("Choi shape does not match dim_in * dim_out")
        check_hermitian(self.choi)

    @property
    def normalized_choi(self):
        return self.choi / self.dim_in

    @_on_first_read
    def flags(self):
        """certify_flags of the Choi operator."""
        return certify_flags(self.choi, self.dim_in, self.dim_out)

    @_on_first_read
    def kraus(self):
        """The given Kraus stack, else kraus_from_choi when CP, else None."""
        if self.given_kraus is not None:
            return self.given_kraus
        if self.flags.cp.status != "yes":
            return None
        return kraus_from_choi(self.choi, self.dim_in, self.dim_out)


class ThermalMap(NamedTuple):
    hamiltonian: np.ndarray
    beta: float


def certify_flags(choi, dim_in, dim_out):
    """Certify cp/tp/unital of a Hermitian Choi operator from its eigenvalues and marginals."""
    cp_chk = psd_check(eigvalsh((choi + dagger(choi)) / 2))
    cp = Flag("yes" if cp_chk.is_psd else "no", cp_chk.min_eig)
    # Both marginals minus the identity, which is subtracted on the diagonal.
    c4 = choi.reshape(dim_in, dim_out, dim_in, dim_out)
    tr_out = np.einsum("ibjb->ij", c4)
    tr_out.flat[:: dim_in + 1] -= 1
    tp_res = float(np.linalg.norm(tr_out))
    tp = Flag("yes" if tp_res <= TP_TOL else "no", tp_res)
    tr_in = np.einsum("aiaj->ij", c4)
    tr_in.flat[:: dim_out + 1] -= 1
    un_res = float(np.linalg.norm(tr_in))
    unital = Flag("yes" if un_res <= TP_TOL else "no", un_res)
    return ChannelFlags(cp, tp, unital)


def channel_from_kraus(kraus):
    """Build a channel from an (r, dim_out, dim_in) Kraus stack or a sequence of matrices.

    The channel keeps them as one complex stack.  Ragged operators, no
    operator, and input that is not a stack of matrices raise ValueError.
    """
    try:
        kraus = np.asarray(kraus, dtype=complex)
    except ValueError:
        raise ValueError("inconsistent Kraus shapes") from None
    if kraus.ndim != 3 or not kraus.size:
        raise ValueError(f"need a nonempty (r, dim_out, dim_in) Kraus stack, got {kraus.shape}")
    r, dim_out, dim_in = kraus.shape
    # sum_k vec(K_k^T) vec(K_k^T)^dagger, as one matmul over the stack.
    vecs = kraus.transpose(0, 2, 1).reshape(r, dim_in * dim_out)
    return Channel(dim_in, dim_out, vecs.T @ vecs.conj(), kraus)


def kraus_from_choi(choi, dim_in, dim_out):
    """A minimal Kraus set of a PSD Choi operator, stacked (r, dim_out, dim_in).

    K_i = sqrt(w_i) unvec(v_i)^T for each eigenvalue w_i of herm_eig above
    SUPPORT_CUTOFF, in ascending order.
    """
    w, v = herm_eig(choi)
    if w[0] < -PSD_TOL:
        raise ValueError(f"Choi is not PSD: min eigenvalue {w[0]:.3e}")
    on = w > SUPPORT_CUTOFF
    return (v[:, on] * np.sqrt(w[on])).T.reshape(-1, dim_in, dim_out).transpose(0, 2, 1)


def channel_from_choi(choi, dim_in, dim_out, normalized=False):
    """Build a channel from its Choi operator (Kraus extracted when CP and read)."""
    choi = np.asarray(choi, dtype=complex)
    return Channel(dim_in, dim_out, choi * dim_in if normalized else choi)


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
    return Channel(n.dim_out, n.dim_in, adj_choi)


def identity_channel(dim):
    return channel_from_kraus([np.eye(dim)])


def depolarizing_r(dim_in, dim_out):
    """Completely depolarizing map X -> tr(X) 1; trace preserving only if dim_out = 1."""
    # Kraus operator dim_in b + i is |b><i|.
    return channel_from_kraus(np.eye(dim_out * dim_in).reshape(-1, dim_out, dim_in))


def depolarizing_r_tilde(dim_in, dim_out):
    """Trace-preserving variant X -> tr(X) 1 / dim_out."""
    scale = 1.0 / np.sqrt(dim_out)
    return channel_from_kraus(scale * depolarizing_r(dim_in, dim_out).kraus)


def replacer_channel(sigma0, dim_in):
    """Channel X -> tr(X) sigma0 for a fixed state sigma0."""
    sigma0 = np.asarray(sigma0, dtype=complex)
    dim_out = sigma0.shape[0]
    choi = kron(np.eye(dim_in), sigma0)
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
    return channel_from_choi(kron(np.eye(dim), tau), dim, dim)


def weyl_heisenberg_unitaries(dim):
    """The dim^2 shift-and-phase unitaries X^a Z^b as a (dim^2, dim, dim) stack, index dim a + b."""
    phase = np.exp(2j * np.pi * np.arange(dim) / dim)
    eye = np.eye(dim)
    return np.stack([np.roll(eye, a, axis=0) * phase**b for a in range(dim) for b in range(dim)])


_WEYL_HEISENBERG = {}  # dim -> the checked spec of weyl_heisenberg_spec


def weyl_heisenberg_spec(dim):
    """The Weyl-Heisenberg group on both sides, built and checked once per dim; read-only."""
    if dim not in _WEYL_HEISENBERG:
        u = weyl_heisenberg_unitaries(dim)
        u.setflags(write=False)
        spec = TeleCovariantSpec(u, u)
        check_telecov_spec(spec)
        _WEYL_HEISENBERG.setdefault(dim, spec)
    return _WEYL_HEISENBERG[dim]


def _rep_stack(reps, side):
    """reps as a (g, d, d) complex stack; raises naming the side when ragged or not square."""
    if len(reps) == 0:
        raise ValueError(f"{side} is empty")
    if isinstance(reps, np.ndarray):
        shapes = [reps.shape[1:]]
    else:
        shapes = sorted({np.shape(u) for u in reps})
    if len(shapes) > 1:
        raise ValueError(f"{side} are ragged: shapes {shapes[0]} and {shapes[1]}")
    if len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError(f"{side} must be square matrices, got shape {shapes[0]}")
    return np.asarray(reps, dtype=complex)


def _group_stacks(spec, dim_in=None, dim_out=None):
    """(U, V), the reps of spec as stacks, checked against the given dimensions."""
    if len(spec.reps_in) != len(spec.reps_out):
        raise ValueError("reps_in and reps_out must have equal length")
    stacks = _rep_stack(spec.reps_in, "reps_in"), _rep_stack(spec.reps_out, "reps_out")
    for stack, side, want in zip(stacks, ("in", "out"), (dim_in, dim_out)):
        if want is not None and stack.shape[1] != want:
            raise ValueError(
                f"reps_{side} act on dimension {stack.shape[1]} but the channel's "
                f"dim_{side} is {want}"
            )
    return stacks


def check_telecov_spec(spec):
    """Validate unitarity and the one-design twirl condition on the input reps."""
    u, v = _group_stacks(spec)
    for stack in (u, v):
        gram = np.swapaxes(stack.conj(), 1, 2) @ stack - np.eye(stack.shape[1])
        if np.linalg.norm(gram, axis=(1, 2)).max() > UNITARY_TOL:
            raise ValueError("representation element is not unitary")
    # twirl[i, j] = mean_g u_g e_ij u_g^dag, against delta_ij 1/dim for every basis matrix.
    dim = u.shape[1]
    twirl = np.einsum("gai,gbj->ijab", u, u.conj()) / len(u)
    twirl -= np.einsum("ij,ab->ijab", np.eye(dim), np.eye(dim) / dim)
    if np.linalg.norm(twirl, axis=(2, 3)).max() > TWIRL_TOL:
        raise ValueError("input representation fails the twirl condition")


def telecov_channel(spec, base):
    """Group-twirl a base channel into a covariant one, N o U_g = V_g o N."""
    u, v = _group_stacks(spec, base.dim_in, base.dim_out)
    if spec is not _WEYL_HEISENBERG.get(base.dim_in):
        check_telecov_spec(spec)
    # Mean over g of the Choi of V_g^dag o base o U_g, summed in group order.
    twisted = kron(np.swapaxes(u, 1, 2), np.swapaxes(v.conj(), 1, 2))
    twisted = twisted @ base.choi @ kron(u.conj(), v)
    choi = (twisted / len(u)).sum(axis=0)
    out = channel_from_choi(choi, base.dim_in, base.dim_out)
    res = covariance_residual(spec, out)
    if res > COVARIANCE_TOL:
        raise ValueError(f"twirled channel fails covariance: residual {res:.3e}")
    return out


def covariance_residual(spec, n):
    """Max over g of ||(U_g^T (x) 1) C (U_g^* (x) 1) - (1 (x) V_g) C (1 (x) V_g^dag)||."""
    u, v = _group_stacks(spec, n.dim_in, n.dim_out)
    eye_in, eye_out = np.eye(n.dim_in), np.eye(n.dim_out)
    lhs = kron(np.swapaxes(u, 1, 2), eye_out) @ n.choi @ kron(u.conj(), eye_out)
    rhs = kron(eye_in, v) @ n.choi @ kron(eye_in, np.swapaxes(v.conj(), 1, 2))
    return float(np.linalg.norm(lhs - rhs, axis=(1, 2)).max())


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
    return channel_from_kraus(v.reshape(dim_out, env_dim, dim_in).transpose(1, 0, 2))


def compose(n2, n1):
    """Composition n2 o n1 (apply n1 first)."""
    if n1.dim_out != n2.dim_in:
        raise ValueError("dim_out of the inner channel must match dim_in of the outer")
    din, dmid, dout = n1.dim_in, n1.dim_out, n2.dim_out
    c1 = n1.choi.reshape(din, dmid, din, dmid)
    c2 = n2.choi.reshape(dmid, dout, dmid, dout)
    choi = np.einsum("ibjc,bdce->idje", c1, c2).reshape(din * dout, din * dout)
    return Channel(din, dout, choi)


def tensor_channels(n, m):
    """Tensor product channel N (x) M on (in_N in_M) -> (out_N out_M)."""
    din = n.dim_in * m.dim_in
    dout = n.dim_out * m.dim_out
    big = kron(n.choi, m.choi)
    choi = permute_systems(big, (n.dim_in, n.dim_out, m.dim_in, m.dim_out), (0, 2, 1, 3))
    return Channel(din, dout, choi)


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
    dim_in, dim_out = _json_dim(obj["dim_in"], "dim_in"), _json_dim(obj["dim_out"], "dim_out")
    if "kraus" in obj and "choi" in obj:
        raise ValueError("channel JSON holds both 'kraus' and 'choi'")
    if "kraus" in obj:
        kraus = [matrix_from_json(k) for k in obj["kraus"]]
        n = channel_from_kraus(kraus)
        if (n.dim_in, n.dim_out) != (dim_in, dim_out):
            raise ValueError("declared dimensions do not match Kraus shapes")
        return n
    if "choi" in obj:
        normalized = obj.get("normalized", False)
        if not isinstance(normalized, bool):
            raise ValueError("'normalized' must be a JSON boolean")
        choi = matrix_from_json(obj["choi"])
        return channel_from_choi(choi, dim_in, dim_out, normalized=normalized)
    raise ValueError("channel JSON needs either 'kraus' or 'choi'")
