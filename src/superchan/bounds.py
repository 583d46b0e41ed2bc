"""Inequality checks: entropy gains, divergence contraction, recovery bounds.

Each check compares two numerically estimated sides of a proven inequality and
returns a VerificationRecord carrying the slack plus enough context (seed,
witnesses, parameters) to replay it.  Entropies are certified intervals, and
a check reads the end of each that cannot make it pass spuriously; its record
names the ends read.
"""

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from .channels import (
    apply,
    apply_adjoint,
    channel_from_kraus,
    channel_to_json,
    depolarizing_r,
    is_cptp,
    tensor_channels,
)
from .divergences import (
    OptimizerOpts,
    channel_divergence,
    channel_entropy,
    choi_witness,
    maximally_entangled,
    nudge_full_rank,
    rel_entropy,
    vn_entropy,
)
from .linalg import (
    SUPPORT_CUTOFF,
    check_density,
    dagger,
    fidelity,
    herm_eig,
    herm_eigvals,
    kron,
    mat_fn_psd,
    matrix_to_json,
    psd_check,
)
from .recovery import universal_recovery
from .superchannels import (
    alpha_norm,
    apply_super,
    generalized_rep,
    is_r_subpreserving,
    super_from_rep,
    tp_fix_map,
)

INEQ_TOL = 1e-3
EXACT_TOL = 1e-8


@dataclass(frozen=True)
class VerificationRecord:
    """One checked inequality; passed iff slack = lhs - rhs >= -tolerance.

    slack and passed follow from the sides and the tolerance, so a NaN side,
    as in a skipped record, never passes.
    """

    check_id: str
    lhs: float
    rhs: float
    tolerance: float
    seed: int
    params: Dict[str, Any]
    witnesses: Dict[str, Any]
    skipped: bool = False

    @property
    def slack(self):
        return self.lhs - self.rhs

    @property
    def passed(self):
        return bool(self.slack >= -self.tolerance)


def _record(check_id, lhs, rhs, tolerance, params, witnesses, skipped=False):
    """The record of one check, at seed 0; `superchan verify` stamps its trial seed."""
    return VerificationRecord(
        check_id=check_id,
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=float(tolerance),
        seed=0,
        params=dict(params),
        witnesses=dict(witnesses),
        skipped=skipped,
    )


def _scalar(x):
    """A float, or None when it is not finite (JSON has no inf or NaN)."""
    x = float(x)
    return x if np.isfinite(x) else None


def record_to_json(rec):
    """JSON-safe dict for a record; non-finite scalars become null."""
    return {
        "check_id": rec.check_id,
        "lhs": _scalar(rec.lhs),
        "rhs": _scalar(rec.rhs),
        "slack": _scalar(rec.slack),
        "passed": rec.passed,
        "tolerance": float(rec.tolerance),
        "seed": int(rec.seed),
        "params": rec.params,
        "witnesses": rec.witnesses,
        "skipped": bool(rec.skipped),
    }


def _hermitian(x):
    return (x + dagger(x)) / 2


def _require_superchannel(theta):
    if theta.flags.completely_cp_preserving.status != "yes":
        raise ValueError("supermap is not certified completely CP-preserving")
    if theta.flags.tp_preserving.status != "yes":
        raise ValueError("supermap does not preserve trace-preserving maps")


def _interval(res):
    """[lower, upper] of a result, JSON-safe: an infinite end becomes None."""
    return [_scalar(res.value), _scalar(res.upper)]


def _witness_json(**states):
    return {name: matrix_to_json(psi.a_psi) for name, psi in states.items()}


def _alpha_remainder(f, rho):
    """alpha = ||F*(1)|| and D(rho || alpha^-alpha (F* F rho)^alpha).

    Computed in log space, as alpha D(rho || P) + (alpha - 1) S(rho)
    + alpha log2 alpha with P = F* F rho, so no power of alpha or of P is
    formed (alpha^alpha overflows a float near alpha = 144).  P^alpha has
    P's support, so the support and leak rule is rel_entropy's.
    """
    alpha = alpha_norm(f)
    pushed = _hermitian(apply_adjoint(f, apply(f, rho)))
    div = alpha * rel_entropy(rho, pushed) + (alpha - 1.0) * vn_entropy(rho)
    return alpha, div + alpha * float(np.log2(alpha))


def verify_channel_dpi(n, m, theta, opts=OptimizerOpts(), tolerance=INEQ_TOL):
    """Channel divergence never grows under a superchannel.

    slack = D[N||M] - D[Theta(N)||Theta(M)], read from the lower end of
    D[N||M] and the upper end of D[Theta(N)||Theta(M)].
    """
    _require_superchannel(theta)
    before = channel_divergence(n, m, opts)
    after = channel_divergence(apply_super(theta, n), apply_super(theta, m), opts)
    params = {
        "dims": list(theta.dims),
        "restarts": opts.restarts,
        "max_evals": opts.max_evals,
        "before": _interval(before),
        "after": _interval(after),
        "before_evaluations": before.evaluations,
        "after_evaluations": after.evaluations,
        "lhs_end": "lower",
        "rhs_end": "upper",
    }
    wit = _witness_json(before=before.optimizer_state, after=after.optimizer_state)
    return _record("channel-dpi", before.value, after.upper, tolerance, params, wit)


def verify_entropy_gain_remainder(theta, n, psi=None, phi=None, tolerance=INEQ_TOL):
    """Channel-entropy gain under a superchannel against its remainder bound.

    slack = S[Theta(N)] - S[N] - (D(C || C_alpha) + [S(psi marginal) - S(phi
    marginal)]), read from the lower end of S[Theta(N)] and the upper end of
    S[N], with C the Choi state of the channel in the coordinates of psi,
    alpha the operator norm of the adjoint representing map on the identity,
    and C_alpha = alpha^-alpha (T* T C)^alpha.  When both reference marginals
    live on the same space params also carries the refined gamma term, a
    lower bound on the marginal-entropy difference.  Witnesses default to the
    entropies' witnesses, blended to full rank when needed.
    """
    _require_superchannel(theta)
    a, _, c, _ = theta.dims
    before, after = channel_entropy(n), channel_entropy(apply_super(theta, n))

    psi0 = psi if psi is not None else before.optimizer_state
    phi0 = phi if phi is not None else after.optimizer_state
    full_rank = bool(psi0.full_rank and phi0.full_rank)
    psi0, phi0 = nudge_full_rank(psi0), nudge_full_rank(phi0)

    t_frak = generalized_rep(theta, psi0, phi0)
    c_state = _hermitian(choi_witness(n, psi0))
    alpha, rho_alpha_term = _alpha_remainder(t_frak, c_state)
    delta_prime = vn_entropy(psi0.marginal_ref) - vn_entropy(phi0.marginal_ref)
    gamma_term = None
    if a == c:
        sqrt_psi = mat_fn_psd(*herm_eig(psi0.marginal_ref), np.sqrt)
        inv_sqrt_phi = mat_fn_psd(*herm_eig(phi0.marginal_ref), lambda w: 1.0 / np.sqrt(w))
        connect = channel_from_kraus([sqrt_psi @ inv_sqrt_phi])
        gamma_term = _scalar(_alpha_remainder(connect, phi0.marginal_ref)[1])
    params = {
        "entropy_before": _interval(before),
        "entropy_after": _interval(after),
        "lhs_end": "lower",
        "alpha": _scalar(alpha),
        "delta_prime": _scalar(delta_prime),
        "gamma_term": gamma_term,
        "witness_full_rank": full_rank,
    }
    return _record(
        "entropy-gain-super",
        after.value - before.upper,
        rho_alpha_term + delta_prime,
        tolerance,
        params,
        {},
    )


def verify_refined_dpi(
    theta,
    n,
    m,
    opts=OptimizerOpts(),
    tolerance=INEQ_TOL,
    psi=None,
    phi=None,
):
    """Divergence drop under a superchannel against the recovery-fidelity bound.

    slack = (D[N||M] - D[Theta(N)||Theta(M)]) + log2 F(C, recovered C), where
    the recovery channel is the universal one built from the Choi state of M
    and the trace-preserving completion of the representing map in witness
    coordinates.  The drop is read from the lower end of D[N||M] and the
    upper end of D[Theta(N)||Theta(M)].  Witnesses default to maximally
    entangled states.  The record is skipped when that completion, with
    sigma0 = 1/d, is not CP.
    """
    _require_superchannel(theta)
    if not is_cptp(n) or not is_cptp(m):
        raise ValueError("both channels must be certified CPTP")
    # apply_super checks the input slot, on the skipped path too.
    theta_n, theta_m = apply_super(theta, n), apply_super(theta, m)
    a, _, c, _ = theta.dims
    base_params = {"dims": list(theta.dims)}
    psi0 = psi if psi is not None else maximally_entangled(a)
    phi0 = phi if phi is not None else maximally_entangled(c)
    t_prime = tp_fix_map(generalized_rep(theta, psi0, phi0))
    cp = t_prime.flags.cp
    if cp.status != "yes":
        reason = (
            "the completion with sigma0 = 1/d of the witness-coordinate "
            "representing map is not CP"
        )
        nan = float("nan")
        params = {**base_params, "reason": reason, "completion_min_eig": float(cp.certificate)}
        return _record("refined-dpi", nan, nan, tolerance, params, {}, skipped=True)

    before = channel_divergence(n, m, opts)
    after = channel_divergence(theta_n, theta_m, opts)

    sigma = _hermitian(choi_witness(m, psi0))
    rec = universal_recovery(sigma, t_prime)
    c_state = _hermitian(choi_witness(n, psi0))
    recovered = _hermitian(apply(rec, apply(t_prime, c_state)))
    fid = max(fidelity(c_state, recovered), np.finfo(float).tiny)

    lhs = before.value - after.upper
    rhs = -float(np.log2(fid))
    params = dict(base_params)
    params.update(
        {
            "fidelity": float(fid),
            "completion_min_eig": float(cp.certificate),
            "before": _interval(before),
            "after": _interval(after),
            "lhs_end": "lower",
            "rhs_end": "point",
        }
    )
    wit = _witness_json(
        psi=psi0, phi=phi0, before=before.optimizer_state, after=after.optimizer_state
    )
    return _record("refined-dpi", lhs, rhs, tolerance, params, wit)


def verify_entropy_gain_rsub(theta, n, tolerance=INEQ_TOL):
    """Channel entropy never decreases under a depolarize-subpreserving supermap.

    slack = S[Theta(N)] - S[N], read from the lower end of S[Theta(N)] and
    the upper end of S[N].
    """
    _require_superchannel(theta)
    report = is_r_subpreserving(theta)
    if not report.verdict:
        raise ValueError(
            f"supermap does not subpreserve the depolarizing map: "
            f"min eigenvalue {report.min_eig:.3e}"
        )
    before, after = channel_entropy(n), channel_entropy(apply_super(theta, n))
    params = {
        "dims": list(theta.dims),
        "r_preserving": bool(report.is_r_preserving),
        "diff_min_eig": float(report.min_eig),
        "before": _interval(before),
        "after": _interval(after),
        "lhs_end": "lower",
        "rhs_end": "upper",
    }
    wit = _witness_json(before=before.optimizer_state, after=after.optimizer_state)
    return _record("entropy-nondecrease", after.value, before.upper, tolerance, params, wit)


def entropy_gain_positive_map(f, rho):
    """Entropy gain of a positive map against its relative-entropy remainders.

    Always evaluates D(rho || alpha^-alpha (F* F rho)^alpha).  When the map is
    certified CP and its output has full rank it also evaluates the sharper
    reference alpha^-1 F*((F rho)^alpha) where forming it stays in the float
    range and its rounding within PSD_TOL, and for CP unital maps the scaling
    bound (alpha - 1) S(rho); the record keeps the largest lower bound, at
    tolerance EXACT_TOL.  Positivity of the map itself is the caller's
    responsibility.
    """
    rho = check_density(rho, herm_eigvals(rho))
    frho = _hermitian(apply(f, rho))
    gain = vn_entropy(frho) - vn_entropy(rho)
    alpha, power_term = _alpha_remainder(f, rho)
    terms = {"power": float(power_term)}

    cp = f.flags.cp.status == "yes"
    spectrum = herm_eigvals(frho)
    out_full_rank = bool(spectrum[0] > SUPPORT_CUTOFF)
    # D(rho || F*((F rho)^alpha) / alpha) is evaluated with F rho divided by s,
    # the larger of 1 and its smallest eigenvalue, so no eigenvalue of the
    # power drops below the absolute support cutoff (dividing by the largest
    # would turn the term +inf). 2 alpha dim_out^2 (lambda_max / s)^alpha
    # bounds every entry met in forming it; where that passes the float range
    # the term is left out, as it is for a rank-deficient output.  The
    # operand is PSD in exact arithmetic, so an eigenvalue below -PSD_TOL is
    # its rounding, about eps times its norm; there the term is left out too.
    s = max(float(spectrum[0]), 1.0)
    log_top = alpha * np.log2(spectrum[-1] / s) if out_full_rank else np.inf
    if cp and log_top + np.log2(2 * alpha * f.dim_out**2) < np.log2(np.finfo(float).max):
        hat = _hermitian(apply_adjoint(f, mat_fn_psd(*herm_eig(frho / s), lambda w: w**alpha)))
        if psd_check(herm_eigvals(hat)).is_psd:
            div = rel_entropy(rho, hat) - alpha * np.log2(s) + np.log2(alpha)
            terms["adjoint-power"] = float(div)
    if cp and f.flags.unital.status == "yes":
        terms["unital-scaling"] = float((alpha - 1.0) * vn_entropy(rho))

    params = {"alpha": float(alpha), "terms": terms, "cp": cp, "output_full_rank": out_full_rank}
    wit = {"rho": matrix_to_json(rho), "map": channel_to_json(f)}
    return _record(
        "entropy-gain-positive-map", gain, max(terms.values()), EXACT_TOL, params, wit
    )


def verify_entropy_additivity(n, m):
    """Additivity of channel entropy on a tensor pair, as a residual check.

    The record encodes |S[N (x) M] - S[N] - S[M]| <= EXACT_TOL through
    lhs = 0 and rhs = residual, the worst corner of the three certified
    intervals.  params holds each entropy as [lower, upper].
    """
    r_n, r_m = channel_entropy(n), channel_entropy(m)
    r_joint = channel_entropy(tensor_channels(n, m))
    s_n, s_m, s_joint = _interval(r_n), _interval(r_m), _interval(r_joint)
    residual = max(
        abs(s_joint[1] - s_n[0] - s_m[0]), abs(s_joint[0] - s_n[1] - s_m[1])
    )
    params = {
        "path": "certified",
        "joint": s_joint,
        "left": s_n,
        "right": s_m,
        "rhs_end": "worst corner",
    }
    wit = _witness_json(
        left=r_n.optimizer_state, right=r_m.optimizer_state, joint=r_joint.optimizer_state
    )
    return _record("entropy-additivity", 0.0, residual, EXACT_TOL, params, wit)


def depolarizing_supermap(dims):
    """Supermap sending every map to tr(Choi) times the depolarizing map."""
    a, b, c, d = dims
    return super_from_rep(depolarizing_r(a * b, c * d).choi, tuple(dims))


def replacer_supermap(n0, dim_in, dim_mid):
    """Superchannel sending every channel on the input slot to the fixed n0."""
    rep_choi = kron(np.eye(dim_in * dim_mid), n0.choi) / dim_in
    return super_from_rep(rep_choi, (dim_in, dim_mid, n0.dim_in, n0.dim_out))
