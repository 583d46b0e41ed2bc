"""Entropic functionals: relative entropy, channel divergence, channel entropy.

All logarithms are base 2.  Channel divergences are estimated by restarted
derivative-free ascent over pure bipartite inputs with reference dimension
equal to the channel input dimension; replacer pairs and channels sharing a
tele-covariance group get exact closed forms instead.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .channels import channel_from_choi, is_cptp, thermal_map
from .linalg import (
    SUPPORT_CUTOFF,
    dagger,
    herm_eig,
    mat_log2_psd,
    partial_trace,
    psd_check,
    support_projector,
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
    full_rank: bool
    min_sv: float

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
    rank_cutoff: float = RANK_CUTOFF
    grid_check: bool = False


@dataclass(frozen=True)
class DivergenceResult:
    value: float
    optimizer_state: Optional[PureBipartiteState]
    restarts_used: int
    per_restart_values: tuple
    converged: bool
    is_lower_bound: bool


def pure_bipartite(a_psi, rank_cutoff=RANK_CUTOFF):
    """Normalize an amplitude matrix into a PureBipartiteState."""
    a = np.asarray(a_psi, dtype=complex)
    nrm = np.linalg.norm(a)
    if nrm == 0:
        raise ValueError("amplitude matrix is zero")
    a = a / nrm
    min_sv = float(np.linalg.svd(a, compute_uv=False)[-1])
    return PureBipartiteState(a, min_sv > rank_cutoff, min_sv)


def maximally_entangled(dim):
    return pure_bipartite(np.eye(dim) / np.sqrt(dim))


def nudge_full_rank(psi, rank_cutoff=RANK_CUTOFF):
    """Blend with the maximally entangled amplitude until full rank holds."""
    if psi.min_sv > rank_cutoff:
        return psi
    dim = psi.a_psi.shape[0]
    for lam in np.geomspace(rank_cutoff * 10, 1.0, 16):
        cand = pure_bipartite((1 - lam) * psi.a_psi + lam * np.eye(dim) / np.sqrt(dim))
        if cand.min_sv > rank_cutoff:
            return cand
    return maximally_entangled(dim)


def rel_entropy(rho, sigma, leak_tol=LEAK_TOL, cutoff=SUPPORT_CUTOFF):
    """Quantum relative entropy D(rho||sigma) in bits, +inf on support leakage."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError("shape mismatch")
    for name, x in (("rho", rho), ("sigma", sigma)):
        chk = psd_check(x)
        if not chk.is_psd:
            raise ValueError(f"{name} is not PSD: min eigenvalue {chk.min_eig:.3e}")
    leak = np.trace(rho @ (np.eye(rho.shape[0]) - support_projector(sigma, cutoff))).real
    if leak > leak_tol:
        return np.inf
    w, _ = herm_eig(rho)
    on = w > cutoff
    first = float(np.sum(w[on] * np.log2(w[on])))
    second = float(np.trace(rho @ mat_log2_psd(sigma, cutoff)).real)
    return first - second


def vn_entropy(rho, cutoff=SUPPORT_CUTOFF):
    """von Neumann entropy -tr(rho log2 rho) of a PSD operator, in bits."""
    rho = np.asarray(rho, dtype=complex)
    chk = psd_check(rho)
    if not chk.is_psd:
        raise ValueError(f"operator is not PSD: min eigenvalue {chk.min_eig:.3e}")
    w, _ = herm_eig(rho)
    on = w > cutoff
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
    rho = apply_extended(n, psi.density, dim_ref)
    sig = apply_extended(m, psi.density, dim_ref)
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
        np.allclose(a, b, atol=1e-12)
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

    if opts.grid_check:
        rng = np.random.default_rng((opts.seed, 0xFEED))
        for _ in range(10_000):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            psi = pure_bipartite(g)
            val = divergence_at(n, m, psi)
            if val > best_val:
                best_val, best_state = val, psi
        per_restart.append(best_val)

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


def channel_entropy_telecov(n, residual_tol=1e-8):
    """Exact channel entropy S(C_N) - log2 dim_in for tele-covariant channels."""
    from .channels import covariance_residual

    if n.telecov is None:
        raise ValueError("channel carries no tele-covariance data")
    res = covariance_residual(n.telecov, n)
    if res > residual_tol:
        raise ValueError(f"covariance residual too large: {res:.3e}")
    return vn_entropy(n.normalized_choi) - np.log2(n.dim_in)


def channel_entropy_beta(n, thermal, opts=OptimizerOpts(), witnesses=()):
    """Entropy against the completely thermalizing reference exp(-beta H)."""
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    m = thermal_map(thermal)
    return _negated(channel_divergence(n, m, opts, witnesses=witnesses))
