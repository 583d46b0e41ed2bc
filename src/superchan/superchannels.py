"""Superchannels: dilation form, representing map, trace-preserving repair.

A superchannel maps channels A->B to channels C->D and is stored through its
representing map T on L(A(x)B) -> L(C(x)D), itself held as a Channel whose Choi
operator lives on (A(x)B) (x) (C(x)D).  The dilation form, when present, is a
pre channel C -> A(x)R and a post channel B(x)R -> D.  Like a Channel's, a
Superchannel's flags are certified on first read, so building one (or its
identity extension, which always tensors representing maps) decomposes nothing.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import (
    UNITARY_TOL,
    Channel,
    Flag,
    _on_first_read,
    apply,
    apply_adjoint,
    channel_from_choi,
    channel_from_json,
    channel_from_kraus,
    channel_to_json,
    identity_channel,
    is_cptp,
)
from .linalg import (
    TRACE_TOL,
    _json_dim,
    check_hermitian,
    dagger,
    herm_eigvals,
    kron,
    matrix_from_json,
    matrix_to_json,
    permute_systems,
    psd_check,
)

TP_PRESERVING_TOL = 1e-8
# is_r_subpreserving: largest Frobenius norm of the difference for which Theta
# counts as preserving the depolarizing map, not only subpreserving it.
R_PRESERVING_TOL = 1e-8
# random_isometry_super: largest |sum p_i - 1| of the mixing probabilities.
PROBS_TOL = 1e-10
# tp_fix_map: a correction within dim_out * EPS entrywise is rounding of T*(1).
EPS = np.finfo(float).eps


class Dilation(NamedTuple):
    pre: Channel
    post: Channel
    ref_dim: int


class SuperFlags(NamedTuple):
    completely_cp_preserving: Flag
    tp_preserving: Flag


@dataclass(frozen=True, eq=False)
class Superchannel:
    dims: tuple
    rep: Channel
    dilation: Optional[Dilation] = None

    @_on_first_read
    def flags(self):
        """The rep's CP flag and certify_tp_preserving of its Choi."""
        return SuperFlags(self.rep.flags.cp, certify_tp_preserving(self.rep, self.dims))


class RSubReport(NamedTuple):
    verdict: bool
    min_eig: float
    is_r_preserving: bool


def certify_tp_preserving(rep, dims):
    """Certificate that the supermap sends trace-preserving maps to such maps.

    Holds iff T*(e_kl (x) 1_D) = Z_kl (x) 1_B with tr Z_kl = delta_kl for all
    k, l; the certificate is the worst residual over that basis.
    """
    a, b, c, d = dims
    c8 = rep.choi.reshape(a, b, c, d, a, b, c, d)
    # w[k, l] = T*(e_kl (x) 1_D) for every basis pair at once, and z its B-trace.
    w = np.einsum("abkdxyld->klabxy", c8.conj())
    z = np.einsum("klabxb->klax", w) / b
    off_product = w - np.einsum("klax,by->klabxy", z, np.eye(b))
    residual = np.linalg.norm(off_product.reshape(c, c, -1), axis=2)
    trace_err = np.abs(np.einsum("klaa->kl", z) - np.eye(c))
    worst = float(max(residual.max(), trace_err.max()))
    return Flag("yes" if worst <= TP_PRESERVING_TOL else "no", worst)


def super_from_rep(rep_choi, dims):
    """Superchannel from a raw representing-map Choi operator on (AB)(x)(CD)."""
    a, b, c, d = dims
    rep = channel_from_choi(rep_choi, a * b, c * d)
    return Superchannel(tuple(dims), rep)


def super_from_dilation(pre, post, ref_dim=1):
    """Superchannel post o (N (x) id_R) o pre from CPTP pre and post channels.

    The representing map is built from its Kraus operators, one per pair
    (P_j, Q_k) of pre and post Kraus operators: K_jk = sum_r (P_j^r)^T (x)
    Q_k^r with P_j^r = (1_A (x) <r|) P_j and Q_k^r = Q_k (1_B (x) |r>), so
    rep.kraus is that stack and reading it decomposes nothing.
    """
    if not is_cptp(pre) or not is_cptp(post):
        raise ValueError("pre and post must be certified CPTP")
    if ref_dim < 1:
        raise ValueError(f"ref_dim must be >= 1, got {ref_dim}")
    if pre.dim_out % ref_dim or post.dim_in % ref_dim:
        raise ValueError("ref_dim does not divide the pre/post interface dims")
    a = pre.dim_out // ref_dim
    b = post.dim_in // ref_dim
    c, d = pre.dim_in, post.dim_out
    pk = pre.kraus.reshape(-1, a, ref_dim, c)
    qk = post.kraus.reshape(-1, d, b, ref_dim)
    kraus = np.einsum("jarc,kdbr->jkcdab", pk, qk).reshape(-1, c * d, a * b)
    rep = channel_from_kraus(kraus)
    return Superchannel((a, b, c, d), rep, Dilation(pre, post, ref_dim))


def apply_super(theta, n):
    """Output channel Theta(N) via the representing map acting on the Choi."""
    a, b, c, d = theta.dims
    if (n.dim_in, n.dim_out) != (a, b):
        raise ValueError("channel dimensions do not match the superchannel input slot")
    return channel_from_choi(apply(theta.rep, n.choi), c, d)


def tp_fix_map(base, sigma0=None):
    """Trace-preserving completion T'(X) = T(X) + (tr X - tr T(X)) sigma0 of a CP map.

    sigma0 is 1/dim_out unless one is given, and T' comes back as a Channel
    whose Choi adds (1 - T*(1))^t (x) sigma0; its flags.cp certifies whether
    T' is CP.  A T' that is not CP does not prove that no sigma0 completes T:
    deciding that is a semidefinite feasibility problem, not solved here.

    A base whose correction lies entrywise within d EPS, d = dim_out, is its
    own completion, and is returned with the flags it has already certified.
    T' = T then holds to working precision: T*(1)_ij = sum_b conj(C_(ib),(jb))
    is a sum of d terms (the other products with 1 are exact zeros), and
    1 - s is exact for s in [1/2, 2] (Sterbenz) or 0 - s off the diagonal, so
    the computed correction is off by at most (d - 1) EPS/sqrt(2) sum_b
    |C_(ib),(jb)| per entry.  C is PSD, so by Cauchy-Schwarz that sum is at
    most sqrt(T*(1)_ii T*(1)_jj) = 1 + O(EPS).  The exact correction is thus
    within 2 d EPS of zero entrywise, and T' - T, its transpose (x) sigma0,
    within 2 d EPS max|sigma0| of zero: a change the rounding of T*(1)
    cannot tell from none.
    """
    if base.flags.cp.status != "yes":
        raise ValueError("trace-preserving completion needs a CP base map")
    dout = base.dim_out
    sigma0 = np.asarray(np.eye(dout) / dout if sigma0 is None else sigma0, dtype=complex)
    if sigma0.shape != (dout, dout):
        raise ValueError(f"sigma0 must have shape {(dout, dout)}, got {sigma0.shape}")
    try:
        check_hermitian(sigma0)
    except ValueError as exc:
        raise ValueError(f"sigma0: {exc}") from None
    if abs(np.trace(sigma0) - 1.0) > TRACE_TOL:
        raise ValueError("sigma0 must have unit trace")
    corr = np.eye(base.dim_in) - apply_adjoint(base, np.eye(dout))
    if np.abs(corr).max() <= dout * EPS:
        return base
    return channel_from_choi(base.choi + kron(corr.T, sigma0), base.dim_in, dout)


def is_r_subpreserving(theta):
    """PSD check of the Choi of (depolarize_CD - Theta(depolarize_AB))."""
    a, b, c, d = theta.dims
    diff = np.eye(c * d) - apply(theta.rep, np.eye(a * b))
    chk = psd_check(herm_eigvals(diff))
    return RSubReport(chk.is_psd, chk.min_eig, float(np.linalg.norm(diff)) <= R_PRESERVING_TOL)


def random_isometry_super(probs, isometries_pre, isometries_post):
    """Superchannel N -> sum_i p_i V_i o N o U_i with a classical flag register.

    The isometries come as two stacks (or sequences) of one matrix per
    probability, U_i of shape (a, c) and V_i of shape (d, b).
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > PROBS_TOL or np.any(probs < 0):
        raise ValueError("probs must be a probability vector")
    # A sum within PROBS_TOL of 1 can leave pre's TP residual above TP_TOL.
    probs = probs / probs.sum()
    us = np.asarray(isometries_pre, dtype=complex)
    vs = np.asarray(isometries_post, dtype=complex)
    r = len(probs)
    if len(us) != r or len(vs) != r:
        raise ValueError("need one pre and one post isometry per probability")
    for w in (us, vs):
        gram = np.swapaxes(w.conj(), 1, 2) @ w - np.eye(w.shape[2])
        if np.linalg.norm(gram, axis=(1, 2)).max() > UNITARY_TOL:
            raise ValueError("input is not an isometry")
    # The flag register is the last factor: pre's one Kraus operator stacks
    # sqrt(p_i) U_i over its value i, and post's i-th reads V_i at flag i.
    u_stack = (np.sqrt(probs)[:, None, None] * us).transpose(1, 0, 2)
    v_flagged = np.einsum("ydb,yi->ydbi", vs, np.eye(r))
    pre = channel_from_kraus(u_stack.reshape(1, -1, us.shape[2]))
    post = channel_from_kraus(v_flagged.reshape(r, vs.shape[1], -1))
    return super_from_dilation(pre, post, ref_dim=r)


def generalized_rep(theta, psi, phi):
    """Conjugate T into normalized-Choi coordinates set by witnesses psi, phi."""
    a, b, c, d = theta.dims
    if psi.a_psi.shape != (a, a) or phi.a_psi.shape != (c, c):
        raise ValueError("witness amplitude shapes must match the input slots")
    if not (psi.full_rank and phi.full_rank):
        raise ValueError("witnesses must have full-rank marginals")
    # X -> B T(A X A^dag) B^dag has Choi (A^T (x) B) C_T (A^T (x) B)^dag.
    pull = kron(np.linalg.inv(psi.a_psi), np.eye(b)).T
    push = kron(phi.a_psi, np.eye(d))
    sandwich = kron(pull, push)
    choi = sandwich @ theta.rep.choi @ dagger(sandwich)
    # Maximally entangled witnesses with a = c give a sandwich of ones to
    # rounding, which can leave C_T entrywise unchanged; T is then returned
    # with the flags it has already certified.
    if np.array_equal(choi, theta.rep.choi):
        return theta.rep
    return channel_from_choi(choi, a * b, c * d)


def alpha_norm(f):
    """alpha = ||F*(1)||, the operator norm of the adjoint map on the identity."""
    return float(np.linalg.norm(apply_adjoint(f, np.eye(f.dim_out)), ord=2))


def extend_super_with_identity(theta, dim_e):
    """The supermap id_E (x) Theta acting on maps E(x)A -> E(x)B."""
    id_e = super_from_rep(identity_channel(dim_e * dim_e).choi, (dim_e,) * 4)
    return tensor_supermaps(id_e, theta)


def tensor_supermaps(t1, t2):
    """Joint supermap acting slotwise on a tensor-product channel space."""
    a1, b1, c1, d1 = t1.dims
    a2, b2, c2, d2 = t2.dims
    rep_choi = permute_systems(
        kron(t1.rep.choi, t2.rep.choi),
        (a1, b1, c1, d1, a2, b2, c2, d2),
        (0, 4, 1, 5, 2, 6, 3, 7),
    )
    return super_from_rep(rep_choi, (a1 * a2, b1 * b2, c1 * c2, d1 * d2))


def super_to_json(theta):
    out = {"dims": list(theta.dims)}
    if theta.dilation is not None:
        out["pre"] = channel_to_json(theta.dilation.pre)
        out["post"] = channel_to_json(theta.dilation.post)
        out["ref_dim"] = theta.dilation.ref_dim
    else:
        out["rep_choi"] = matrix_to_json(theta.rep.choi)
    return out


def super_from_json(obj):
    dims = tuple(_json_dim(x, "dims") for x in obj["dims"])
    if "rep_choi" in obj and ("pre" in obj or "post" in obj):
        raise ValueError("superchannel JSON holds both a dilation ('pre'/'post') and 'rep_choi'")
    if "pre" in obj:
        theta = super_from_dilation(
            channel_from_json(obj["pre"]),
            channel_from_json(obj["post"]),
            ref_dim=_json_dim(obj.get("ref_dim", 1), "ref_dim"),
        )
        # (pre.dim_out / ref_dim, post.dim_in / ref_dim, pre.dim_in, post.dim_out)
        if dims != theta.dims:
            raise ValueError(f"'dims' {list(dims)} do not match the dilation's {list(theta.dims)}")
        return theta
    if "rep_choi" in obj:
        return super_from_rep(matrix_from_json(obj["rep_choi"]), dims)
    raise ValueError("superchannel JSON needs either a dilation or 'rep_choi'")
