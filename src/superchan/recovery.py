"""Recovery maps that reverse a channel's action on a reference state.

Provides the Petz map, its rotated family, the quadrature-averaged universal
recovery channel, the adjoint-based tilde recovery, and the channel-level
recovery supermap built from all of these.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    SUPPORT_CUTOFF,
    _projector_from_spectrum,
    check_density,
    dagger,
    herm_eig,
    mat_inv_sqrt_psd,
    mat_sqrt_psd,
    matrix_to_json,
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


class Quadrature(NamedTuple):
    half_width: float = 20.0
    nodes: int = 801


@dataclass(frozen=True)
class RecoveryMap:
    """A recovery channel and the parameters it was built with."""

    kind: str
    rec: Channel
    t_param: float = 0.0
    quadrature: Optional[Quadrature] = None


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
    sigma = check_density(np.asarray(sigma, dtype=complex))
    if sigma.shape != (n.dim_in, n.dim_in):
        raise ValueError("sigma dimension must match the channel input")
    if n.flags.cp.status != "yes":
        raise ValueError("recovery needs a CP channel")
    nsig = apply(n, sigma)
    nsig = (nsig + dagger(nsig)) / 2
    sig_sqrt = mat_sqrt_psd(sigma)
    nsig_isqrt = mat_inv_sqrt_psd(nsig)
    base = tuple(sig_sqrt @ dagger(k) @ nsig_isqrt for k in _kraus_of(n))
    return sigma, nsig, base


def _imaginary_power(p, t):
    """p^{it} on the support of p, zero elsewhere (a partial isometry)."""
    w, v = herm_eig(p)
    on = w > SUPPORT_CUTOFF
    phases = np.zeros(len(w), dtype=complex)
    phases[on] = np.exp(1j * t * np.log(w[on]))
    return (v * phases) @ dagger(v)


def petz(sigma, n):
    """Petz map of (sigma, n): CP, trace nonincreasing, recovers sigma."""
    _, _, base = _petz_ingredients(sigma, n)
    return RecoveryMap("petz", channel_from_kraus(base))


def rotated_petz(sigma, n, t):
    """Petz map conjugated by imaginary powers of sigma and n(sigma)."""
    sigma, nsig, base = _petz_ingredients(sigma, n)
    u = _imaginary_power(sigma, -t)
    w = _imaginary_power(nsig, t)
    rec = channel_from_kraus([u @ b @ w for b in base])
    return RecoveryMap("rotated", rec, float(t))


def quadrature_weights(quad):
    """Simpson nodes and weights for the cosh averaging density."""
    if quad.nodes < 3 or quad.nodes % 2 == 0:
        raise ValueError("quadrature needs an odd node count >= 3")
    if quad.half_width <= 0:
        raise ValueError("quadrature half width must be positive")
    ts = np.linspace(-quad.half_width, quad.half_width, quad.nodes)
    h = 2.0 * quad.half_width / (quad.nodes - 1)
    simpson = np.ones(quad.nodes)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    density = 0.5 * np.pi / (np.cosh(np.pi * ts) + 1.0)
    return ts, (h / 3.0) * simpson * density


def universal_recovery(sigma, n, quad=Quadrature(), xi=None):
    """Average of rotated Petz maps plus an off-support completion onto xi.

    The quadrature part is assembled in the eigenbases of sigma and n(sigma)
    with one phase array per node, so all nodes share one einsum.
    """
    ts, ws = quadrature_weights(quad)
    sigma, nsig, base = _petz_ingredients(sigma, n)
    dx, dy = n.dim_in, n.dim_out
    if xi is None:
        xi = np.eye(dx) / dx
    else:
        xi = check_density(np.asarray(xi, dtype=complex))
        if xi.shape != (dx, dx):
            raise ValueError("xi must live on the recovery output space")

    sw, sv = herm_eig(sigma)
    mw, mv = herm_eig(nsig)
    log_s = np.where(sw > SUPPORT_CUTOFF, np.log(np.clip(sw, 1e-300, None)), 0.0)
    log_m = np.where(mw > SUPPORT_CUTOFF, np.log(np.clip(mw, 1e-300, None)), 0.0)
    # Rotation angle t/2 per node; off-support rows/columns of core are zero.
    left = np.exp(-0.5j * np.outer(ts, log_s))
    right = np.exp(0.5j * np.outer(ts, log_m))
    core = np.stack([dagger(sv) @ b @ mv for b in base])
    rotated = np.einsum("ip,jpq,iq->ijpq", left, core, right)
    kraus_nodes = np.einsum("xp,ijpq,yq->ijxy", sv, rotated, mv.conj())
    choi4 = np.einsum("i,ijxy,ijuv->yxvu", ws, kraus_nodes, kraus_nodes.conj())
    pi = _projector_from_spectrum(mw, mv, SUPPORT_CUTOFF)
    choi = choi4.reshape(dy * dx, dy * dx) + np.kron((np.eye(dy) - pi).T, xi)
    choi = (choi + dagger(choi)) / 2
    rec = channel_from_choi(choi, dy, dx)
    return RecoveryMap("universal", rec, 0.0, quad)


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


def recovery_supermap(theta, m, psi, phi, quad=Quadrature()):
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
    inner = universal_recovery(anchor_state, fix.channel, quad)
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
    out = {
        "kind": r.kind,
        "dim_in": r.rec.dim_in,
        "dim_out": r.rec.dim_out,
        "choi": matrix_to_json(r.rec.choi),
        "t_param": r.t_param,
    }
    if r.quadrature is not None:
        out["quadrature"] = {
            "half_width": r.quadrature.half_width,
            "nodes": r.quadrature.nodes,
        }
    return out
