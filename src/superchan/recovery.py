"""Recovery maps that reverse a channel's action on a reference state.

Provides the Petz map, its rotated family, the universal recovery channel
(the closed-form beta_0-average of rotated Petz maps), the adjoint-based tilde
recovery, and the channel-level recovery supermap built from all of these.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SUPPORT_CUTOFF,
    _fn_from_spectrum,
    _projector_from_spectrum,
    check_density,
    dagger,
    herm_eig,
    matrix_to_json,
    schur_sinh_ratio,
    trace_norm,
)
from .channels import (
    Channel,
    adjoint,
    apply,
    channel_from_choi,
    channel_from_kraus,
    is_cptp,
    kraus_from_choi,
)
from .divergences import PureBipartiteState
from .superchannels import (
    Superchannel,
    apply_super,
    choi_witness,
    generalized_rep,
    tp_fix_map,
    tp_fixed_channel,
)


@dataclass(frozen=True)
class RecoveryMap:
    """A recovery channel and the parameters it was built with."""

    kind: str
    rec: Channel
    t_param: float = 0.0


@dataclass(frozen=True)
class RecoverySupermap:
    """Channel-level recovery: exact on the anchor, reported elsewhere."""

    theta: Superchannel
    psi: PureBipartiteState
    phi: PureBipartiteState
    inner_recovery: RecoveryMap
    anchor_residual: float


def _kraus_of(n):
    if n.kraus is not None:
        return n.kraus
    return kraus_from_choi(n.choi, n.dim_in, n.dim_out)


def _petz_ingredients(sigma, n):
    """Spectra of sigma and n(sigma), and the Petz Kraus operators."""
    sigma = check_density(np.asarray(sigma, dtype=complex))
    if sigma.shape != (n.dim_in, n.dim_in):
        raise ValueError("sigma dimension must match the channel input")
    if n.flags.cp.status != "yes":
        raise ValueError("recovery needs a CP channel")
    nsig = apply(n, sigma)
    nsig = (nsig + dagger(nsig)) / 2
    s_spec, m_spec = herm_eig(sigma), herm_eig(nsig)
    sig_sqrt = _fn_from_spectrum(*s_spec, "sqrt", SUPPORT_CUTOFF)
    nsig_isqrt = _fn_from_spectrum(*m_spec, "inv_sqrt", SUPPORT_CUTOFF)
    base = tuple(sig_sqrt @ dagger(k) @ nsig_isqrt for k in _kraus_of(n))
    return s_spec, m_spec, base


def _support_log(w):
    """ln w on the support, 0 off it."""
    return np.log(w, out=np.zeros_like(w), where=w > SUPPORT_CUTOFF)


def _imaginary_power(spec, t):
    """p^{it} on the support of p, zero elsewhere (a partial isometry)."""
    w, v = spec
    phases = np.where(w > SUPPORT_CUTOFF, np.exp(1j * t * _support_log(w)), 0.0)
    return (v * phases) @ dagger(v)


def petz(sigma, n):
    """Petz map of (sigma, n): CP, trace nonincreasing, recovers sigma."""
    _, _, base = _petz_ingredients(sigma, n)
    return RecoveryMap("petz", channel_from_kraus(base))


def rotated_petz(sigma, n, t):
    """Petz map conjugated by imaginary powers of sigma and n(sigma)."""
    s_spec, m_spec, base = _petz_ingredients(sigma, n)
    u = _imaginary_power(s_spec, -t)
    w = _imaginary_power(m_spec, t)
    rec = channel_from_kraus([u @ b @ w for b in base])
    return RecoveryMap("rotated", rec, float(t))


def universal_recovery(sigma, n, xi=None):
    """Average of rotated Petz maps plus an off-support completion onto xi.

    The Choi is the integral of rotated_petz(sigma, n, t / 2) against
    beta_0(t) = (pi/2) / (cosh(pi t) + 1) (Junge, Renner, Sutter, Wilde &
    Winter, AHP 19, 2018), plus (1 - Pi).T (x) xi for the support projector
    Pi of n(sigma).  In the eigenbases {s_p} of sigma and {m_q} of n(sigma)
    the rotation multiplies Kraus entry (p, q) by exp(-i t lam_qp), with
    lam_qp = (ln s_p - ln m_q) / 2, so the average is the Petz Choi times the
    Fourier transform of beta_0, omega / sinh omega at
    omega = lam_qp - lam_q'p'.  Off the supports ln 0 reads as 0; the Petz
    entries vanish there, so the factor does not matter.
    """
    (sw, sv), (mw, mv), base = _petz_ingredients(sigma, n)
    dx, dy = n.dim_in, n.dim_out
    if xi is None:
        xi = np.eye(dx) / dx
    else:
        xi = check_density(np.asarray(xi, dtype=complex))
        if xi.shape != (dx, dx):
            raise ValueError("xi must live on the recovery output space")

    # Row k holds <s_p| base_k |m_q> at (q, p), the Choi's (input, output) order.
    core = np.stack([(dagger(sv) @ b @ mv).T.reshape(-1) for b in base])
    lam = 0.5 * (_support_log(sw)[None, :] - _support_log(mw)[:, None]).reshape(-1)
    basis = np.kron(mv.conj(), sv)
    choi = basis @ schur_sinh_ratio(core.T @ core.conj(), lam) @ dagger(basis)
    pi = _projector_from_spectrum(mw, mv, SUPPORT_CUTOFF)
    choi = choi + np.kron((np.eye(dy) - pi).T, xi)
    choi = (choi + dagger(choi)) / 2
    return RecoveryMap("universal", channel_from_choi(choi, dy, dx))


def tilde_recovery(t_frak, xi=None):
    """Adjoint-based recovery X -> T*(X) + (tr X - tr T*(X)) xi; always TP."""
    dx = t_frak.dim_in
    if xi is None:
        xi = np.eye(dx) / dx
    else:
        xi = check_density(np.asarray(xi, dtype=complex))
        if xi.shape != (dx, dx):
            raise ValueError("xi must live on the recovery output space")
    rec = tp_fixed_channel(adjoint(t_frak), xi)
    return RecoveryMap("tilde", rec)


def recovery_supermap(theta, m, psi, phi):
    """Recovery supermap anchored at m: undo theta exactly on m.

    The representing map in witness coordinates is completed to a channel,
    the universal recovery is built against the anchor's Choi state, and
    channels are pulled back through the inverse witness congruence.
    """
    a, b, _, _ = theta.dims
    if (m.dim_in, m.dim_out) != (a, b):
        raise ValueError("anchor dimensions do not match the superchannel input slot")
    if not is_cptp(m):
        raise ValueError("anchor channel must be CPTP")
    fix = tp_fix_map(generalized_rep(theta, psi, phi))
    if not fix.is_cptp:
        raise ValueError("no trace-preserving completion found for the representing map")
    anchor_state = choi_witness(m, psi)
    anchor_state = (anchor_state + dagger(anchor_state)) / 2
    inner = universal_recovery(anchor_state, fix.channel)
    out = RecoverySupermap(theta, psi, phi, inner, np.nan)
    recovered = recover_channel(out, apply_super(theta, m))
    residual = trace_norm(recovered.choi - m.choi)
    return RecoverySupermap(theta, psi, phi, inner, float(residual))


def recover_channel(rsm, n_tilde):
    """Apply the recovery supermap to a channel on the output slot."""
    _, b, c, d = rsm.theta.dims
    if (n_tilde.dim_in, n_tilde.dim_out) != (c, d):
        raise ValueError("channel dimensions do not match the superchannel output slot")
    y = apply(rsm.inner_recovery.rec, choi_witness(n_tilde, rsm.phi))
    pullback = np.kron(np.linalg.inv(rsm.psi.a_psi), np.eye(b))
    choi = pullback @ y @ dagger(pullback)
    return channel_from_choi((choi + dagger(choi)) / 2, rsm.theta.dims[0], b)


def recovery_to_json(r):
    """JSON-friendly dict with the recovery Choi and its provenance."""
    return {
        "kind": r.kind,
        "dim_in": r.rec.dim_in,
        "dim_out": r.rec.dim_out,
        "choi": matrix_to_json(r.rec.choi),
        "t_param": r.t_param,
    }
