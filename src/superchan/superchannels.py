"""Superchannels: dilation form, representing map, trace-preserving repair.

A superchannel maps channels A->B to channels C->D and is stored through its
representing map T on L(A(x)B) -> L(C(x)D), itself held as a Channel whose Choi
operator lives on (A(x)B) (x) (C(x)D).  The dilation form, when present, is a
pre channel C -> A(x)R and a post channel B(x)R -> D.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import (
    Channel,
    Flag,
    adjoint,
    apply,
    apply_adjoint,
    channel_from_choi,
    channel_from_json,
    channel_from_kraus,
    channel_to_json,
    compose,
    identity_channel,
    is_cptp,
    tensor_channels,
)
from .divergences import RANK_CUTOFF, PureBipartiteState
from .linalg import (
    SUPPORT_CUTOFF,
    dagger,
    herm_eig,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    permute_systems,
    psd_check,
)

TP_PRESERVING_TOL = 1e-8
SIGMA0_SCAN_CAP = 500


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
    flags: SuperFlags = SuperFlags(Flag("unverified", np.nan), Flag("unverified", np.nan))


@dataclass(frozen=True)
class TpFixedMap:
    """Trace-preserving completion T'(X) = T(X) + (tr X - tr T(X)) sigma0."""

    base: Channel
    sigma0: np.ndarray
    choi_min_eig: float
    is_cptp: bool


class SctVerdict(NamedTuple):
    status: str
    fix: TpFixedMap


class RSubReport(NamedTuple):
    verdict: bool
    min_eig: float
    is_r_preserving: bool
    residual: float


@dataclass(frozen=True)
class GeneralizedRepMap:
    """Representing map conjugated into normalized-Choi coordinates."""

    psi: PureBipartiteState
    phi: PureBipartiteState
    t_frak: Channel
    t_frak_adjoint: Channel


def certify_tp_preserving(rep, dims, tol=TP_PRESERVING_TOL):
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
    return Flag("yes" if worst <= tol else "no", worst)


def _flags_for(rep, dims):
    return SuperFlags(rep.flags.cp, certify_tp_preserving(rep, dims))


def super_from_rep(rep_choi, dims):
    """Superchannel from a raw representing-map Choi operator on (AB)(x)(CD)."""
    a, b, c, d = dims
    rep = channel_from_choi(rep_choi, a * b, c * d)
    return Superchannel(tuple(dims), rep, None, _flags_for(rep, dims))


def super_from_dilation(pre, post, ref_dim=1):
    """Superchannel post o (N (x) id_R) o pre from CPTP pre and post channels."""
    if not is_cptp(pre) or not is_cptp(post):
        raise ValueError("pre and post must be certified CPTP")
    if pre.dim_out % ref_dim or post.dim_in % ref_dim:
        raise ValueError("ref_dim does not divide the pre/post interface dims")
    a = pre.dim_out // ref_dim
    b = post.dim_in // ref_dim
    c, d = pre.dim_in, post.dim_out
    pk = np.stack([k.reshape(a, ref_dim, c) for k in pre.kraus])
    qk = np.stack([k.reshape(d, b, ref_dim) for k in post.kraus])
    c8 = np.einsum("parm,pesn,qdbr,qgfs->abmdefng", pk, pk.conj(), qk, qk.conj())
    rep_choi = c8.reshape(a * b * c * d, a * b * c * d)
    rep = channel_from_choi(rep_choi, a * b, c * d)
    dims = (a, b, c, d)
    return Superchannel(dims, rep, Dilation(pre, post, ref_dim), _flags_for(rep, dims))


def apply_super(theta, n):
    """Output channel Theta(N) via the representing map acting on the Choi."""
    a, b, c, d = theta.dims
    if (n.dim_in, n.dim_out) != (a, b):
        raise ValueError("channel dimensions do not match the superchannel input slot")
    return channel_from_choi(apply(theta.rep, n.choi), c, d)


def apply_super_dilation(theta, n):
    """Output channel via the physical dilation path (cross-check route)."""
    if theta.dilation is None:
        raise ValueError("superchannel has no dilation form")
    pre, post, r = theta.dilation
    return compose(post, compose(tensor_channels(n, identity_channel(r)), pre))


def representing_adjoint(theta):
    return adjoint(theta.rep)


def tp_fixed_channel(base, sigma0):
    """The completion T' as a Channel; its Choi adds (1 - T*(1))^t (x) sigma0."""
    g = apply_adjoint(base, np.eye(base.dim_out))
    corr = np.eye(base.dim_in) - g
    choi = base.choi + np.kron(corr.T, np.asarray(sigma0, dtype=complex))
    return channel_from_choi(choi, base.dim_in, base.dim_out)


def _sigma0_candidates(k):
    yield np.full(k, 1.0 / k)
    if k == 1:
        return
    if k == 2:
        for t in np.linspace(-4.0, 5.0, SIGMA0_SCAN_CAP - 3):
            yield np.array([t, 1.0 - t])
        return
    per_axis = max(2, (SIGMA0_SCAN_CAP - 1) // k)
    for i in range(k):
        for t in np.linspace(-3.0, 4.0, per_axis):
            lam = np.full(k, (1.0 - t) / (k - 1))
            lam[i] = t
            yield lam


def tp_fix_map(base, sigma0=None):
    """Trace-preserving completion of a CP map, searching sigma0 if not given.

    The search follows the Choi-feasibility route: split (T*(1))^t - 1 into
    positive/negative/kernel parts, conjugate the Choi by the inverse square
    root (plus kernel projector), and scan trace-one diagonal candidates in the
    eigenbasis of the conjugated operator's C(x)D marginal.  Failure returns a
    non-CP certificate rather than raising.
    """
    if base.flags.cp.status != "yes":
        raise ValueError("trace-preserving completion needs a CP base map")
    if sigma0 is not None:
        sigma0 = np.asarray(sigma0, dtype=complex)
        if abs(np.trace(sigma0) - 1.0) > 1e-8:
            raise ValueError("sigma0 must have unit trace")
        fixed = tp_fixed_channel(base, sigma0)
        return TpFixedMap(base, sigma0, fixed.flags.cp.certificate, fixed.flags.cp.status == "yes")

    din, dout = base.dim_in, base.dim_out
    g_tilde = apply_adjoint(base, np.eye(dout)).T - np.eye(din)
    g_tilde = (g_tilde + dagger(g_tilde)) / 2
    if psd_check(-g_tilde).is_psd:
        # Trace-nonincreasing base: any PSD sigma0 works, take maximally mixed.
        sigma0 = np.eye(dout) / dout
        fixed = tp_fixed_channel(base, sigma0)
        return TpFixedMap(base, sigma0, fixed.flags.cp.certificate, fixed.flags.cp.status == "yes")

    w, v = herm_eig(g_tilde)
    scale = np.where(np.abs(w) > SUPPORT_CUTOFF, 1.0 / np.sqrt(np.abs(w)), 1.0)
    s = (v * scale) @ dagger(v)
    sandwich = np.kron(s, np.eye(dout)) @ base.choi @ np.kron(s, np.eye(dout))
    m_cd = partial_trace(sandwich, (din, dout), "second")
    _, basis = herm_eig(m_cd)

    best = None
    count = 0
    for lam in _sigma0_candidates(dout):
        if count >= SIGMA0_SCAN_CAP:
            break
        count += 1
        cand = (basis * lam) @ dagger(basis)
        fixed = tp_fixed_channel(base, cand)
        min_eig = fixed.flags.cp.certificate
        if best is None or min_eig > best.choi_min_eig:
            best = TpFixedMap(base, cand, min_eig, fixed.flags.cp.status == "yes")
        if best.is_cptp:
            break
    return best


def tp_fix(theta, sigma0=None):
    if theta.flags.completely_cp_preserving.status != "yes":
        raise ValueError("superchannel must be completely CP-preserving")
    return tp_fix_map(theta.rep, sigma0)


def tp_fix_adjoint(t):
    """Adjoint of the completion; equals T* + tr(. sigma0)(1 - T*(1))."""
    return adjoint(tp_fixed_channel(t.base, t.sigma0))


def sct_membership(theta):
    """Bounded-search verdict: "member" on success, else "undecided"."""
    fix = tp_fix(theta)
    return SctVerdict("member" if fix.is_cptp else "undecided", fix)


def is_r_subpreserving(theta, tol=1e-8):
    """PSD check of the Choi of (depolarize_CD - Theta(depolarize_AB))."""
    a, b, c, d = theta.dims
    diff = np.eye(c * d) - apply(theta.rep, np.eye(a * b))
    chk = psd_check(diff)
    residual = float(np.linalg.norm(diff))
    return RSubReport(chk.is_psd, chk.min_eig, residual <= tol, residual)


def random_isometry_super(probs, isometries_pre, isometries_post):
    """Superchannel N -> sum_i p_i V_i o N o U_i with a classical flag register."""
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-10 or np.any(probs < 0):
        raise ValueError("probs must be a probability vector")
    us = [np.asarray(u, dtype=complex) for u in isometries_pre]
    vs = [np.asarray(v, dtype=complex) for v in isometries_post]
    if len(us) != len(probs) or len(vs) != len(probs):
        raise ValueError("need one pre and one post isometry per probability")
    for w in us + vs:
        if np.linalg.norm(dagger(w) @ w - np.eye(w.shape[1])) > 1e-10:
            raise ValueError("input is not an isometry")
    r = len(probs)
    flags = [np.zeros((r, 1)) for _ in range(r)]
    for i in range(r):
        flags[i][i, 0] = 1.0
    pre = channel_from_kraus(
        [sum(np.sqrt(probs[i]) * np.kron(us[i], flags[i]) for i in range(r))]
    )
    post = channel_from_kraus([np.kron(vs[i], flags[i].T) for i in range(r)])
    return super_from_dilation(pre, post, ref_dim=r)


def generalized_rep(theta, psi, phi):
    """Conjugate T into normalized-Choi coordinates set by witnesses psi, phi."""
    a, b, c, d = theta.dims
    if psi.a_psi.shape != (a, a) or phi.a_psi.shape != (c, c):
        raise ValueError("witness amplitude shapes must match the input slots")
    if psi.min_sv <= RANK_CUTOFF or phi.min_sv <= RANK_CUTOFF:
        raise ValueError("witnesses must have full-rank marginals")
    t_psi_inv = channel_from_kraus([np.kron(np.linalg.inv(psi.a_psi), np.eye(b))])
    t_phi = channel_from_kraus([np.kron(phi.a_psi, np.eye(d))])
    t_frak = compose(t_phi, compose(theta.rep, t_psi_inv))
    return GeneralizedRepMap(psi, phi, t_frak, adjoint(t_frak))


def alpha_norm(g):
    """Operator norm of t_frak_adjoint applied to the identity."""
    cd = g.t_frak.dim_out
    w = apply_adjoint(g.t_frak, np.eye(cd))
    return float(np.linalg.norm(w, ord=2))


def choi_witness(n, psi):
    """Normalized Choi state of a channel in the coordinates of a witness."""
    sandwich = np.kron(psi.a_psi, np.eye(n.dim_out))
    return sandwich @ n.choi @ dagger(sandwich)


def extend_super_with_identity(theta, dim_e):
    """The supermap id_E (x) Theta acting on maps E(x)A -> E(x)B."""
    if theta.dilation is not None:
        pre, post, r = theta.dilation
        pre_big = channel_from_kraus([np.kron(np.eye(dim_e), k) for k in pre.kraus])
        post_big = channel_from_kraus([np.kron(np.eye(dim_e), k) for k in post.kraus])
        return super_from_dilation(pre_big, post_big, ref_dim=r)
    id_e = super_from_rep(identity_channel(dim_e * dim_e).choi, (dim_e,) * 4)
    return tensor_supermaps(id_e, theta)


def tensor_supermaps(t1, t2):
    """Joint supermap acting slotwise on a tensor-product channel space."""
    a1, b1, c1, d1 = t1.dims
    a2, b2, c2, d2 = t2.dims
    rep_choi = permute_systems(
        np.kron(t1.rep.choi, t2.rep.choi),
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
    dims = tuple(obj["dims"])
    if "pre" in obj:
        return super_from_dilation(
            channel_from_json(obj["pre"]),
            channel_from_json(obj["post"]),
            ref_dim=int(obj.get("ref_dim", 1)),
        )
    if "rep_choi" in obj:
        return super_from_rep(matrix_from_json(obj["rep_choi"]), dims)
    raise ValueError("superchannel JSON needs either a dilation or 'rep_choi'")
