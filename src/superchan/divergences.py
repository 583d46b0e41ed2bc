"""Entropic functionals: relative entropy, channel divergence, channel entropy.

All logarithms are base 2.  Channel divergences are estimated by restarted
derivative-free ascent over pure bipartite inputs with reference dimension
equal to the channel input dimension; replacer pairs and channels sharing a
tele-covariance group get exact closed forms instead.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .channels import (
    COVARIANCE_TOL,
    channel_from_choi,
    covariance_residual,
    is_cptp,
    thermal_map,
)
from .linalg import (
    SUPPORT_CUTOFF,
    _fn_from_spectrum,
    _projector_from_spectrum,
    _psd_from_spectrum,
    dagger,
    herm_eig,
    partial_trace,
)

LEAK_TOL = 1e-8
RANK_CUTOFF = 1e-6
STEP_INIT = 0.1
REPLACER_TOL = 1e-10
# Finite stand-in for +inf inside the simplex search; exact values are
# recomputed at the final witness.
CAP = 1e9


@dataclass(frozen=True)
class PureBipartiteState:
    """|psi> = (a_psi (x) 1) sum_i |ii> on reference (x) input, unit norm."""

    a_psi: np.ndarray

    @cached_property
    def min_sv(self):
        """Smallest singular value of a_psi, computed on first read."""
        return float(np.linalg.svd(self.a_psi, compute_uv=False)[-1])

    @property
    def full_rank(self):
        return self.min_sv > RANK_CUTOFF

    @property
    def ket(self):
        return self.a_psi.reshape(-1)

    @property
    def density(self):
        k = self.ket
        return np.outer(k, k.conj())

    @property
    def marginal_ref(self):
        return self.a_psi @ dagger(self.a_psi)


@dataclass(frozen=True)
class OptimizerOpts:
    restarts: int = 32
    max_evals: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class DivergenceResult:
    value: float
    optimizer_state: Optional[PureBipartiteState]
    restarts_used: int
    per_restart_values: tuple
    converged: bool
    is_lower_bound: bool


def pure_bipartite(a_psi):
    """Normalize an amplitude matrix into a PureBipartiteState."""
    a = np.asarray(a_psi, dtype=complex)
    nrm = np.linalg.norm(a)
    if nrm == 0:
        raise ValueError("amplitude matrix is zero")
    return PureBipartiteState(a / nrm)


def maximally_entangled(dim):
    return pure_bipartite(np.eye(dim) / np.sqrt(dim))


def nudge_full_rank(psi):
    """Blend with the maximally entangled amplitude until full rank holds."""
    if psi.full_rank:
        return psi
    dim = psi.a_psi.shape[0]
    for lam in np.geomspace(RANK_CUTOFF * 10, 1.0, 16):
        cand = pure_bipartite((1 - lam) * psi.a_psi + lam * np.eye(dim) / np.sqrt(dim))
        if cand.full_rank:
            return cand
    return maximally_entangled(dim)


def _psd_eig(x, name):
    """herm_eig of x; raises naming x when it is not PSD."""
    w, v = herm_eig(x)
    chk = _psd_from_spectrum(w)
    if not chk.is_psd:
        raise ValueError(f"{name} is not PSD: min eigenvalue {chk.min_eig:.3e}")
    return w, v


def rel_entropy(rho, sigma):
    """Quantum relative entropy D(rho||sigma) in bits, +inf on support leakage."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("shape mismatch")
    # One decomposition per operand: sigma's also gives its support projector
    # and its log2.
    w, _ = _psd_eig(rho, "rho")
    mu, u = _psd_eig(sigma, "sigma")
    proj = _projector_from_spectrum(mu, u, SUPPORT_CUTOFF)
    leak = np.trace(rho @ (np.eye(rho.shape[0]) - proj)).real
    if leak > LEAK_TOL:
        return np.inf
    on = w > SUPPORT_CUTOFF
    first = float(np.sum(w[on] * np.log2(w[on])))
    second = float(np.trace(rho @ _fn_from_spectrum(mu, u, "log2", SUPPORT_CUTOFF)).real)
    return first - second


def vn_entropy(rho):
    """von Neumann entropy -tr(rho log2 rho) of a PSD operator, in bits."""
    rho = np.asarray(rho, dtype=complex)
    w, _ = _psd_eig(rho, "operator")
    on = w > SUPPORT_CUTOFF
    return float(-np.sum(w[on] * np.log2(w[on])))


def apply_extended(n, psi_density, dim_ref):
    """(id_ref (x) N) applied to an operator on reference (x) input."""
    din, dout = n.dim_in, n.dim_out
    rho4 = psi_density.reshape(dim_ref, din, dim_ref, din)
    c4 = n.choi.reshape(din, dout, din, dout)
    out = np.einsum("iajb,acbd->icjd", rho4, c4)
    return out.reshape(dim_ref * dout, dim_ref * dout)


def divergence_at(n, m, psi):
    """D((id (x) N)Psi || (id (x) M)Psi) at one pure bipartite witness."""
    dim_ref = psi.a_psi.shape[0]
    density = psi.density
    rho = apply_extended(n, density, dim_ref)
    sig = apply_extended(m, density, dim_ref)
    return rel_entropy(rho, sig)


def _replacer_target(n):
    """The sigma with Choi = 1 (x) sigma, or None if n is not a replacer."""
    sigma = partial_trace(n.choi, (n.dim_in, n.dim_out), "second") / n.dim_in
    if np.linalg.norm(n.choi - np.kron(np.eye(n.dim_in), sigma)) <= REPLACER_TOL:
        return sigma
    return None


def _same_telecov(n, m):
    if n.telecov is None or m.telecov is None:
        return False
    if n.telecov is m.telecov:
        return True
    if n.telecov.group_size != m.telecov.group_size:
        return False
    return all(
        np.allclose(a, b, rtol=0, atol=1e-12)
        for pair in (
            zip(n.telecov.reps_in, m.telecov.reps_in),
            zip(n.telecov.reps_out, m.telecov.reps_out),
        )
        for a, b in pair
    )


def _closed_form_result(value, dim):
    return DivergenceResult(
        value=value,
        optimizer_state=maximally_entangled(dim),
        restarts_used=0,
        per_restart_values=(value,),
        converged=True,
        is_lower_bound=False,
    )


def _params_to_state(x, dim):
    a = (x[: dim * dim] + 1j * x[dim * dim :]).reshape(dim, dim)
    nrm = np.linalg.norm(a)
    if nrm < 1e-12:
        a = np.eye(dim)
        nrm = np.linalg.norm(a)
    return pure_bipartite(a / nrm)


def channel_divergence(n, m, opts=OptimizerOpts(), witnesses=()):
    """Channel relative entropy D[N||M] as a restarted-optimization estimate.

    Extra pure bipartite states in `witnesses` are evaluated alongside the
    restarts, so the returned value dominates every supplied feasible point.
    """
    if (n.dim_in, n.dim_out) != (m.dim_in, m.dim_out):
        raise ValueError("channel dimensions do not match")
    if not is_cptp(n):
        raise ValueError("first argument must be certified CPTP")
    if m.flags.cp.status != "yes":
        raise ValueError("second argument must be certified CP")

    sig_n, sig_m = _replacer_target(n), _replacer_target(m)
    if sig_n is not None and sig_m is not None:
        return _closed_form_result(rel_entropy(sig_n, sig_m), n.dim_in)
    if _same_telecov(n, m):
        return _closed_form_result(
            rel_entropy(n.normalized_choi, m.normalized_choi), n.dim_in
        )

    dim = n.dim_in
    nparams = 2 * dim * dim

    def neg_objective(x):
        val = divergence_at(n, m, _params_to_state(x, dim))
        return -min(val, CAP)

    best_val = -np.inf
    best_state = None
    per_restart = []
    best_success = False
    for r in range(opts.restarts):
        rng = np.random.default_rng((opts.seed, r))
        x0 = rng.normal(size=nparams)
        simplex = np.vstack([x0] + [x0 + STEP_INIT * np.eye(nparams)[i] for i in range(nparams)])
        res = minimize(
            neg_objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": opts.max_evals, "initial_simplex": simplex},
        )
        state = _params_to_state(res.x, dim)
        val = divergence_at(n, m, state)
        per_restart.append(val)
        if val > best_val:
            best_val, best_state, best_success = val, state, bool(res.success)

    for psi in witnesses:
        val = divergence_at(n, m, psi)
        per_restart.append(val)
        if val > best_val:
            best_val, best_state, best_success = val, psi, True

    return DivergenceResult(
        value=best_val,
        optimizer_state=best_state,
        restarts_used=opts.restarts,
        per_restart_values=tuple(per_restart),
        converged=best_success,
        is_lower_bound=True,
    )


def _negated(div):
    """The entropy estimate -D[N||reference] from a divergence result."""
    return replace(
        div,
        value=-div.value,
        per_restart_values=tuple(-v for v in div.per_restart_values),
    )


def channel_entropy(n, opts=OptimizerOpts(), witnesses=()):
    """Channel entropy, the negated divergence to the depolarizing map."""
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    r = channel_from_choi(
        np.eye(n.dim_in * n.dim_out), n.dim_in, n.dim_out
    )
    return _negated(channel_divergence(n, r, opts, witnesses=witnesses))


def channel_entropy_telecov(n):
    """Exact channel entropy S(C_N) - log2 dim_in for tele-covariant channels."""
    if n.telecov is None:
        raise ValueError("channel carries no tele-covariance data")
    res = covariance_residual(n.telecov, n)
    if res > COVARIANCE_TOL:
        raise ValueError(f"covariance residual too large: {res:.3e}")
    return vn_entropy(n.normalized_choi) - np.log2(n.dim_in)


def channel_entropy_beta(n, thermal, opts=OptimizerOpts(), witnesses=()):
    """Entropy against the completely thermalizing reference exp(-beta H)."""
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    m = thermal_map(thermal)
    return _negated(channel_divergence(n, m, opts, witnesses=witnesses))
