"""Recovery maps that reverse a channel's action on a reference state.

Provides the Petz map and the universal recovery channel, the closed-form
beta_0-average of rotated Petz maps.
"""

import numpy as np

from .linalg import (
    SUPPORT_CUTOFF,
    check_density,
    dagger,
    herm_eig,
    kron,
    mat_fn_psd,
    schur_sinh_ratio,
    support_projector,
)
from .channels import apply, channel_from_choi, channel_from_kraus


def _petz_ingredients(sigma, n):
    """Spectra of sigma and n(sigma), and the Petz Kraus stack; sigma's also checks it."""
    sigma = np.asarray(sigma, dtype=complex)
    sw, sv = herm_eig(sigma)
    check_density(sigma, sw)
    if sigma.shape != (n.dim_in, n.dim_in):
        raise ValueError("sigma dimension must match the channel input")
    if n.flags.cp.status != "yes":
        raise ValueError("recovery needs a CP channel")
    nsig = apply(n, sigma)
    nsig = (nsig + dagger(nsig)) / 2
    mw, mv = herm_eig(nsig)
    sig_sqrt = mat_fn_psd(sw, sv, np.sqrt)
    nsig_isqrt = mat_fn_psd(mw, mv, lambda w: 1.0 / np.sqrt(w))
    # sqrt(sigma) K_k^dagger n(sigma)^(-1/2), stacked (r, dim_in, dim_out).
    base = sig_sqrt @ n.kraus.conj().transpose(0, 2, 1) @ nsig_isqrt
    return (sw, sv), (mw, mv), base


def _support_log(w):
    """ln w on the support, 0 off it."""
    return np.log(w, out=np.zeros_like(w), where=w > SUPPORT_CUTOFF)


def petz(sigma, n):
    """Petz map of (sigma, n): CP, trace nonincreasing, recovers sigma."""
    _, _, base = _petz_ingredients(sigma, n)
    return channel_from_kraus(base)


def universal_recovery(sigma, n):
    """Average of rotated Petz maps plus an off-support completion onto 1/d.

    The Choi is the integral of the rotated Petz map, with Kraus operators
    sigma^(1/2 - it/2) K^dag n(sigma)^(-1/2 + it/2), against
    beta_0(t) = (pi/2) / (cosh(pi t) + 1) (Junge, Renner, Sutter, Wilde &
    Winter, AHP 19, 2018), plus (1 - Pi).T (x) 1/d for the support projector
    Pi of n(sigma) and d = dim_in.  In the eigenbases {s_p} of sigma and
    {m_q} of n(sigma) the rotation multiplies Kraus entry (p, q) by
    exp(-i t lam_qp), with lam_qp = (ln s_p - ln m_q) / 2, so the average is
    the Petz Choi times the Fourier transform of beta_0, omega / sinh omega
    at omega = lam_qp - lam_q'p'.  Off the supports ln 0 reads as 0; the
    Petz entries vanish there, so the factor does not matter.
    """
    (sw, sv), (mw, mv), base = _petz_ingredients(sigma, n)
    dx, dy = n.dim_in, n.dim_out

    # Row k holds <s_p| base_k |m_q> at (q, p), the Choi's (input, output) order.
    core = (dagger(sv) @ base @ mv).transpose(0, 2, 1).reshape(len(base), -1)
    lam = 0.5 * (_support_log(sw)[None, :] - _support_log(mw)[:, None]).reshape(-1)
    basis = kron(mv.conj(), sv)
    choi = basis @ schur_sinh_ratio(core.T @ core.conj(), lam) @ dagger(basis)
    pi = support_projector(mw, mv)
    choi = choi + kron((np.eye(dy) - pi).T, np.eye(dx) / dx)
    choi = (choi + dagger(choi)) / 2
    return channel_from_choi(choi, dy, dx)
