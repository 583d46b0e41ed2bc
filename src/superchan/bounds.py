"""Inequality checks: entropy gains, divergence contraction, recovery bounds.

Each check compares two numerically estimated sides of a proven inequality and
returns a VerificationRecord carrying the slack plus enough context (seed,
witnesses, parameters) to replay it.  Optimized quantities guard against
spurious violations by evaluating each side's best witness on the other side
as a feasible point before comparing.
"""

from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional

import numpy as np

from .channels import (
    COVARIANCE_TOL,
    Channel,
    apply,
    apply_adjoint,
    channel_from_kraus,
    channel_to_json,
    covariance_residual,
    depolarizing_r,
    identity_channel,
    is_cptp,
    tensor_channels,
    weyl_heisenberg_spec,
)
from .divergences import (
    STEP_INIT,
    OptimizerOpts,
    channel_divergence,
    channel_entropy,
    channel_entropy_telecov,
    divergence_at,
    maximally_entangled,
    nudge_full_rank,
    pure_bipartite,
    rel_entropy,
    vn_entropy,
)
from .linalg import (
    SUPPORT_CUTOFF,
    check_density,
    dagger,
    fidelity,
    mat_inv_sqrt_psd,
    mat_pow_psd,
    mat_sqrt_psd,
    matrix_to_json,
    psd_check,
)
from .recovery import Quadrature, tilde_recovery, universal_recovery
from .superchannels import (
    apply_super,
    choi_witness,
    extend_super_with_identity,
    generalized_rep,
    is_r_subpreserving,
    sct_membership,
    super_from_rep,
    tensor_supermaps,  # also re-exported as bounds.tensor_supermaps
    tp_fix_map,
    tp_fixed_channel,
)

INEQ_TOL = 1e-3
EXACT_TOL = 1e-8


@dataclass(frozen=True)
class VerificationRecord:
    """One checked inequality; passed iff slack = lhs - rhs >= -tolerance."""

    check_id: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tolerance: float
    seed: int
    params: Dict[str, Any]
    witnesses: Dict[str, Any]
    skipped: bool = False


@dataclass(frozen=True)
class EntropyGainReport:
    """Channel-entropy gain under a supermap against its remainder bound."""

    entropy_before: float
    entropy_after: float
    alpha: float
    rho_alpha_term: float
    delta_prime: float
    gamma_term: Optional[float]
    slack: float
    alpha_state_trace: float
    witness_full_rank: bool


@dataclass(frozen=True)
class SuperDivergenceEstimate:
    """Lower bound on the divergence between supermaps over channel witnesses."""

    value: float
    witness_channel: Optional[Channel]
    ref_dim: int
    restarts: int


class OrderingInstance(NamedTuple):
    """Instance of reference monotonicity: m_tilde - m must be CP."""

    n: Channel
    m: Channel
    m_tilde: Channel


class ProductInstance(NamedTuple):
    """Instance of divergence superadditivity under tensor products."""

    n1: Channel
    m1: Channel
    n2: Channel
    m2: Channel


def _record(check_id, lhs, rhs, tolerance, seed, params, witnesses, skipped=False):
    lhs, rhs = float(lhs), float(rhs)
    slack = lhs - rhs
    return VerificationRecord(
        check_id=check_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=bool(slack >= -tolerance),
        tolerance=float(tolerance),
        seed=int(seed),
        params=dict(params),
        witnesses=dict(witnesses),
        skipped=skipped,
    )


def _skipped_record(check_id, reason, tolerance, seed, params=()):
    nan = float("nan")
    merged = dict(params)
    merged["reason"] = reason
    return VerificationRecord(
        check_id, nan, nan, nan, False, float(tolerance), int(seed), merged, {}, True
    )


def record_to_json(rec):
    """JSON-safe dict for a record; non-finite scalars become null."""

    def scalar(x):
        return float(x) if np.isfinite(x) else None

    return {
        "check_id": rec.check_id,
        "lhs": scalar(rec.lhs),
        "rhs": scalar(rec.rhs),
        "slack": scalar(rec.slack),
        "passed": bool(rec.passed),
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


def _require_input_slot(theta, *chans):
    a, b = theta.dims[0], theta.dims[1]
    for n in chans:
        if (n.dim_in, n.dim_out) != (a, b):
            raise ValueError("channel dimensions do not match the supermap input slot")


def _state_witnesses(*results):
    out = []
    for res in results:
        if res is not None and res.optimizer_state is not None:
            out.append(res.optimizer_state)
    return tuple(out)


def _witness_json(**states):
    out = {}
    for name, psi in states.items():
        if psi is not None:
            out[name] = matrix_to_json(psi.a_psi)
    return out


def _try_attach_telecov(ch, spec):
    """Return the channel tagged covariant when the residual certifies it."""
    if spec is not None and covariance_residual(spec, ch) <= COVARIANCE_TOL:
        return Channel(ch.dim_in, ch.dim_out, ch.choi, ch.kraus, ch.flags, telecov=spec)
    return ch


def _alpha_remainder(f, rho):
    """alpha = ||F*(1)||, the reference alpha^-alpha (F* F rho)^alpha, and D."""
    alpha = float(np.linalg.norm(apply_adjoint(f, np.eye(f.dim_out)), ord=2))
    pushed = _hermitian(apply_adjoint(f, apply(f, rho)))
    ref = mat_pow_psd(pushed, alpha) / alpha**alpha
    return alpha, ref, rel_entropy(rho, ref)


def _entropy_pair(n, tn, opts, share):
    """S[N] and S[Theta(N)], each tightened with the other's best witness.

    The witnesses are shared only when share holds (equal input slots): before,
    then after seeded with before's witness, then before again with after's.
    """
    before = channel_entropy(n, opts)
    after = channel_entropy(tn, opts, witnesses=_state_witnesses(before) if share else ())
    if share:
        before = channel_entropy(n, opts, witnesses=_state_witnesses(after))
    return before, after


def _divergence_pair(n, m, tn, tm, opts, share):
    """D[N||M] and D[Theta(N)||Theta(M)], the first seeded with the second's witness.

    Returns the two results and the number of injected witnesses.
    """
    after = channel_divergence(tn, tm, opts)
    cross = _state_witnesses(after) if share else ()
    before = channel_divergence(n, m, opts, witnesses=cross)
    return before, after, len(cross)


def verify_channel_dpi(n, m, theta, opts=OptimizerOpts(), tolerance=INEQ_TOL):
    """Channel divergence never grows under a superchannel.

    slack = D[N||M] - D[Theta(N)||Theta(M)].  The first side receives the
    second side's best witness as a feasible point whenever the input slots
    have equal dimension.
    """
    if not is_cptp(n):
        raise ValueError("first channel must be certified CPTP")
    if m.flags.cp.status != "yes":
        raise ValueError("second channel must be certified CP")
    _require_superchannel(theta)
    _require_input_slot(theta, n, m)
    a, _, c, _ = theta.dims
    before, after, injected = _divergence_pair(
        n, m, apply_super(theta, n), apply_super(theta, m), opts, a == c
    )
    params = {"dims": list(theta.dims), "restarts": opts.restarts, "injected": injected}
    wit = _witness_json(before=before.optimizer_state, after=after.optimizer_state)
    return _record("channel-dpi", before.value, after.value, tolerance, opts.seed, params, wit)


def _is_identity_super(theta):
    a, b, c, d = theta.dims
    if (a, b) != (c, d):
        return False
    return np.array_equal(theta.rep.choi, identity_channel(a * b).choi)


def _same_witness(psi, phi):
    if psi is None and phi is None:
        return True
    if psi is None or phi is None:
        return False
    return psi.a_psi.shape == phi.a_psi.shape and np.array_equal(psi.a_psi, phi.a_psi)


def verify_entropy_gain_remainder(theta, n, opts=OptimizerOpts(), psi=None, phi=None):
    """Channel-entropy gain under a superchannel against its remainder bound.

    The bound is D(C || C_alpha) + [S(psi marginal) - S(phi marginal)], with C
    the Choi state of the channel in the coordinates of psi, alpha the
    operator norm of the adjoint representing map on the identity, and
    C_alpha = alpha^-alpha (T* T C)^alpha.  When both reference marginals live
    on the same space the report also carries the refined gamma term, a lower
    bound on the marginal-entropy difference.  Witnesses default to the
    entropy optimizers, blended to full rank when needed.
    """
    _require_superchannel(theta)
    _require_input_slot(theta, n)
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    a, _, c, _ = theta.dims

    if _is_identity_super(theta) and _same_witness(psi, phi):
        # Exact zeros: the identity supermap leaves every quantity unchanged.
        before = channel_entropy(n, opts)
        return EntropyGainReport(
            entropy_before=before.value,
            entropy_after=before.value,
            alpha=1.0,
            rho_alpha_term=0.0,
            delta_prime=0.0,
            gamma_term=0.0,
            slack=0.0,
            alpha_state_trace=1.0,
            witness_full_rank=True,
        )

    before, after = _entropy_pair(n, apply_super(theta, n), opts, a == c)

    psi0 = psi if psi is not None else before.optimizer_state
    phi0 = phi if phi is not None else after.optimizer_state
    full_rank = bool(psi0.full_rank and phi0.full_rank)
    psi0, phi0 = nudge_full_rank(psi0), nudge_full_rank(phi0)

    g = generalized_rep(theta, psi0, phi0)
    c_state = _hermitian(choi_witness(n, psi0))
    alpha, c_alpha, rho_alpha_term = _alpha_remainder(g.t_frak, c_state)
    delta_prime = vn_entropy(psi0.marginal_ref) - vn_entropy(phi0.marginal_ref)
    gamma_term = None
    if a == c:
        connect = channel_from_kraus(
            [mat_sqrt_psd(psi0.marginal_ref) @ mat_inv_sqrt_psd(phi0.marginal_ref)]
        )
        gamma_term = _alpha_remainder(connect, phi0.marginal_ref)[2]
    slack = (after.value - before.value) - (rho_alpha_term + delta_prime)
    return EntropyGainReport(
        entropy_before=before.value,
        entropy_after=after.value,
        alpha=alpha,
        rho_alpha_term=rho_alpha_term,
        delta_prime=delta_prime,
        gamma_term=gamma_term,
        slack=slack,
        alpha_state_trace=float(np.trace(c_alpha).real),
        witness_full_rank=full_rank,
    )


def verify_refined_dpi(
    theta,
    n,
    m,
    opts=OptimizerOpts(),
    quad=Quadrature(),
    tolerance=INEQ_TOL,
    psi=None,
    phi=None,
):
    """Divergence drop under a superchannel against the recovery-fidelity bound.

    slack = (D[N||M] - D[Theta(N)||Theta(M)]) + log2 F(C, recovered C), where
    the recovery channel is the universal one built from the Choi state of M
    and the trace-preserving completion of the representing map in witness
    coordinates.  Witnesses default to maximally entangled states, which is
    also the covariant fast path: channels sharing a certified covariance
    group get closed-form divergences instead of optimized ones.
    """
    _require_superchannel(theta)
    _require_input_slot(theta, n, m)
    if not is_cptp(n) or not is_cptp(m):
        raise ValueError("both channels must be certified CPTP")
    a, _, c, d = theta.dims
    base_params = {"dims": list(theta.dims)}
    verdict = sct_membership(theta)
    if verdict.status != "member":
        return _skipped_record(
            "refined-dpi",
            "no trace-preserving completion found for the representing map",
            tolerance,
            opts.seed,
            base_params,
        )
    psi0 = psi if psi is not None else maximally_entangled(a)
    phi0 = phi if phi is not None else maximally_entangled(c)
    g = generalized_rep(theta, psi0, phi0)
    fix = tp_fix_map(g.t_frak)
    if not fix.is_cptp:
        return _skipped_record(
            "refined-dpi",
            "witness-coordinate representing map has no trace-preserving completion",
            tolerance,
            opts.seed,
            base_params,
        )
    t_prime = tp_fixed_channel(g.t_frak, fix.sigma0)

    tn, tm = apply_super(theta, n), apply_super(theta, m)
    if (c, d) == (n.dim_in, n.dim_out):
        tn = _try_attach_telecov(tn, n.telecov)
        tm = _try_attach_telecov(tm, m.telecov)
    before, after, _ = _divergence_pair(n, m, tn, tm, opts, a == c)

    sigma = _hermitian(choi_witness(m, psi0))
    rec = universal_recovery(sigma, t_prime, quad)
    c_state = _hermitian(choi_witness(n, psi0))
    recovered = _hermitian(apply(rec.rec, apply(t_prime, c_state)))
    fid = max(fidelity(c_state, recovered), np.finfo(float).tiny)

    lhs = before.value - after.value
    rhs = -float(np.log2(fid))
    params = dict(base_params)
    params.update(
        {
            "fidelity": float(fid),
            "path": "telecov" if tn.telecov is not None and tm.telecov is not None else "optimized",
            "completion_min_eig": float(fix.choi_min_eig),
        }
    )
    wit = _witness_json(
        psi=psi0, phi=phi0, before=before.optimizer_state, after=after.optimizer_state
    )
    return _record("refined-dpi", lhs, rhs, tolerance, opts.seed, params, wit)


def verify_entropy_gain_rsub(theta, n, opts=OptimizerOpts(), tolerance=INEQ_TOL):
    """Channel entropy never decreases under a depolarize-subpreserving supermap.

    slack = S[Theta(N)] - S[N].  Both entropy estimates are tightened with the
    other side's witness whenever the input slots have equal dimension.
    """
    _require_superchannel(theta)
    _require_input_slot(theta, n)
    report = is_r_subpreserving(theta)
    if not report.verdict:
        raise ValueError(
            f"supermap does not subpreserve the depolarizing map: "
            f"min eigenvalue {report.min_eig:.3e}"
        )
    a, _, c, _ = theta.dims
    before, after = _entropy_pair(n, apply_super(theta, n), opts, a == c)
    params = {
        "dims": list(theta.dims),
        "r_preserving": bool(report.is_r_preserving),
        "diff_min_eig": float(report.min_eig),
    }
    wit = _witness_json(before=before.optimizer_state, after=after.optimizer_state)
    return _record(
        "entropy-nondecrease", after.value, before.value, tolerance, opts.seed, params, wit
    )


def entropy_gain_positive_map(f, rho, tolerance=EXACT_TOL, seed=0, sharper=None):
    """Entropy gain of a positive map against its relative-entropy remainders.

    Always evaluates D(rho || alpha^-alpha (F* F rho)^alpha).  When the map is
    certified CP and its output has full rank it also evaluates the sharper
    reference alpha^-1 F*((F rho)^alpha), and for CP unital maps the scaling
    bound (alpha - 1) S(rho); the record keeps the largest lower bound.
    Positivity of the map itself is the caller's responsibility.
    """
    rho = check_density(rho)
    frho = _hermitian(apply(f, rho))
    gain = vn_entropy(frho) - vn_entropy(rho)
    alpha, _, power_term = _alpha_remainder(f, rho)
    terms = {"power": float(power_term)}

    cp = f.flags.cp.status == "yes"
    out_full_rank = bool(psd_check(frho).min_eig > SUPPORT_CUTOFF)
    if sharper:
        if not cp:
            raise ValueError("the sharper reference needs a certified CP map")
        if not out_full_rank:
            raise ValueError("the sharper reference needs a full-rank output")
    use_sharper = (cp and out_full_rank) if sharper is None else bool(sharper)
    if use_sharper:
        hat = _hermitian(apply_adjoint(f, mat_pow_psd(frho, alpha))) / alpha
        terms["adjoint-power"] = float(rel_entropy(rho, hat))
    if cp and f.flags.unital.status == "yes":
        terms["unital-scaling"] = float((alpha - 1.0) * vn_entropy(rho))

    params = {"alpha": float(alpha), "terms": terms, "cp": cp, "output_full_rank": out_full_rank}
    wit = {"rho": matrix_to_json(rho), "map": channel_to_json(f)}
    return _record(
        "entropy-gain-positive-map", gain, max(terms.values()), tolerance, seed, params, wit
    )


def _ordering_record(inst, opts, tolerance):
    n, m, m_tilde = inst
    diff = psd_check(m_tilde.choi - m.choi)
    if not diff.is_psd:
        raise ValueError(f"reference ordering fails: min eigenvalue {diff.min_eig:.3e}")
    with_big = channel_divergence(n, m_tilde, opts)
    with_small = channel_divergence(n, m, opts, witnesses=_state_witnesses(with_big))
    shared = _state_witnesses(with_small, with_big)
    pointwise = min(
        (divergence_at(n, m, s) - divergence_at(n, m_tilde, s) for s in shared),
        default=np.inf,
    )
    params = {
        "pointwise_min_slack": float(pointwise),
        "ordering_min_eig": float(diff.min_eig),
        "restarts": opts.restarts,
    }
    wit = _witness_json(small=with_small.optimizer_state, big=with_big.optimizer_state)
    return _record(
        "divergence-ordering",
        with_small.value,
        with_big.value,
        tolerance,
        opts.seed,
        params,
        wit,
    )


def _product_record(inst, opts, tolerance):
    n1, m1, n2, m2 = inst
    d1 = channel_divergence(n1, m1, opts)
    d2 = channel_divergence(n2, m2, opts)
    inject = ()
    if d1.optimizer_state is not None and d2.optimizer_state is not None:
        inject = (pure_bipartite(np.kron(d1.optimizer_state.a_psi, d2.optimizer_state.a_psi)),)
    joint = channel_divergence(
        tensor_channels(n1, n2), tensor_channels(m1, m2), opts, witnesses=inject
    )
    params = {"left": float(d1.value), "right": float(d2.value), "restarts": opts.restarts}
    wit = _witness_json(
        left=d1.optimizer_state, right=d2.optimizer_state, joint=joint.optimizer_state
    )
    return _record(
        "divergence-superadditivity",
        joint.value,
        d1.value + d2.value,
        tolerance,
        opts.seed,
        params,
        wit,
    )


def verify_ordering_and_superadditivity(instances, opts=OptimizerOpts(), tolerance=INEQ_TOL):
    """Reference monotonicity and tensor superadditivity of channel divergence.

    OrderingInstance(n, m, m_tilde) checks D[N||M] >= D[N||M_tilde] for
    m_tilde - m CP; ProductInstance(n1, m1, n2, m2) checks the product
    divergence dominates the sum via a product-witness feasible point.
    """
    records = []
    for inst in instances:
        if isinstance(inst, OrderingInstance):
            records.append(_ordering_record(inst, opts, tolerance))
        elif isinstance(inst, ProductInstance):
            records.append(_product_record(inst, opts, tolerance))
        else:
            raise ValueError("instances must be OrderingInstance or ProductInstance")
    return records


def verify_entropy_additivity(n, m, opts=None, tolerance=None):
    """Additivity of channel entropy on a tensor pair, as a residual check.

    The record encodes |S[N (x) M] - S[N] - S[M]| <= tolerance through
    lhs = 0 and rhs = residual.  Covariance-tagged pairs use the closed form
    at tolerance 1e-8; otherwise both directions rest on optimized estimates
    with a product-witness feasible point, at the looser default tolerance.
    """
    joint = tensor_channels(n, m)
    if n.telecov is not None and m.telecov is not None and joint.telecov is not None:
        s_n, s_m = channel_entropy_telecov(n), channel_entropy_telecov(m)
        s_joint = channel_entropy_telecov(joint)
        tol = EXACT_TOL if tolerance is None else tolerance
        path, seed = "telecov", 0
        wit = {}
    else:
        o = OptimizerOpts() if opts is None else opts
        r_n, r_m = channel_entropy(n, o), channel_entropy(m, o)
        inject = ()
        if r_n.optimizer_state is not None and r_m.optimizer_state is not None:
            inject = (
                pure_bipartite(np.kron(r_n.optimizer_state.a_psi, r_m.optimizer_state.a_psi)),
            )
        r_joint = channel_entropy(joint, o, witnesses=inject)
        s_n, s_m, s_joint = r_n.value, r_m.value, r_joint.value
        tol = INEQ_TOL if tolerance is None else tolerance
        path, seed = "optimized", o.seed
        wit = _witness_json(
            left=r_n.optimizer_state, right=r_m.optimizer_state, joint=r_joint.optimizer_state
        )
    params = {"path": path, "joint": float(s_joint), "left": float(s_n), "right": float(s_m)}
    return _record(
        "entropy-additivity", 0.0, abs(s_joint - s_n - s_m), tol, seed, params, wit
    )


def verify_telecov_entropy_gain(theta, n, tolerance=INEQ_TOL, xi=None, opts=None):
    """Entropy gain on a covariant channel against the simple-recovery bound.

    slack = (S[Theta(N)] - S[N]) - (D(C || recovered C) + log2(|A|/|C|)),
    with the recovery built from the adjoint representing map.  The map must
    be trace preserving and subunital in maximally-entangled coordinates;
    violations yield a skipped record.  Entropies use the covariant closed
    form when certified, otherwise optimized estimates.
    """
    _require_superchannel(theta)
    _require_input_slot(theta, n)
    a, b, c, d = theta.dims
    g = generalized_rep(theta, maximally_entangled(a), maximally_entangled(c))
    tp_res = float(np.linalg.norm(apply_adjoint(g.t_frak, np.eye(c * d)) - np.eye(a * b)))
    sub = psd_check(np.eye(c * d) - _hermitian(apply(g.t_frak, np.eye(a * b))))
    params = {"dims": list(theta.dims), "tp_residual": tp_res, "subunital_min_eig": float(sub.min_eig)}
    if tp_res > EXACT_TOL:
        return _skipped_record(
            "telecov-entropy-gain",
            "representing map is not trace preserving in witness coordinates",
            tolerance,
            0,
            params,
        )
    if sub.min_eig < -EXACT_TOL:
        return _skipped_record(
            "telecov-entropy-gain",
            "representing map is not subunital in witness coordinates",
            tolerance,
            0,
            params,
        )

    rec = tilde_recovery(g, xi)
    c_state = _hermitian(choi_witness(n, maximally_entangled(a)))
    recovered = _hermitian(apply(rec.rec, _hermitian(apply(g.t_frak, c_state))))
    bound = rel_entropy(c_state, recovered) + float(np.log2(a / c))

    tn = apply_super(theta, n)
    s_before = s_after = None
    if n.telecov is not None and covariance_residual(n.telecov, n) <= COVARIANCE_TOL:
        s_before = channel_entropy_telecov(n)
        out_spec = None
        if (c, d) == (n.dim_in, n.dim_out):
            out_spec = n.telecov
        elif c == d:
            out_spec = weyl_heisenberg_spec(c)
        tn_tagged = _try_attach_telecov(tn, out_spec)
        if tn_tagged.telecov is not None:
            s_after = channel_entropy_telecov(tn_tagged)
    seed = 0
    if s_before is None or s_after is None:
        o = OptimizerOpts() if opts is None else opts
        seed = o.seed
        before, after = _entropy_pair(n, tn, o, a == c)
        s_before, s_after = before.value, after.value
        params["path"] = "optimized"
    else:
        params["path"] = "telecov"
    params["recovery_term"] = float(bound)
    wit = {"choi_state": matrix_to_json(c_state)}
    return _record(
        "telecov-entropy-gain", s_after - s_before, bound, tolerance, seed, params, wit
    )


def depolarizing_supermap(dims):
    """Supermap sending every map to tr(Choi) times the depolarizing map."""
    a, b, c, d = dims
    return super_from_rep(depolarizing_r(a * b, c * d).choi, tuple(dims))


def replacer_supermap(n0, dim_in, dim_mid):
    """Superchannel sending every channel on the input slot to the fixed n0."""
    rep_choi = np.kron(np.eye(dim_in * dim_mid), n0.choi) / dim_in
    return super_from_rep(rep_choi, (dim_in, dim_mid, n0.dim_in, n0.dim_out))


def _isometry_from_params(x, rows, cols):
    half = rows * cols
    g = (x[:half] + 1j * x[half:]).reshape(rows, cols)
    q, r = np.linalg.qr(g)
    dg = np.diag(r).copy()
    dg[np.abs(dg) < 1e-12] = 1.0
    return q * (dg / np.abs(dg))


def super_divergence_lb(
    theta,
    gamma,
    ref_dim=2,
    opts=OptimizerOpts(restarts=2, max_evals=40),
    inner_opts=None,
    env_dim=2,
):
    """Lower bound on the supermap divergence over entangled channel witnesses.

    Hill-climbs the inner channel divergence over Stinespring-parameterized
    channel witnesses on reference (x) input, seeded from Gaussian initial
    parameters; opts controls the outer ascent (restarts, proposals per
    restart) and inner_opts the inner divergence estimate.  The value is
    exact at the returned witness but only a lower bound on the supremum over
    all reference dimensions.
    """
    if theta.flags.completely_cp_preserving.status != "yes":
        raise ValueError("first supermap is not certified completely CP-preserving")
    if gamma.flags.completely_cp_preserving.status != "yes":
        raise ValueError("second supermap is not certified completely CP-preserving")
    if theta.dims != gamma.dims:
        raise ValueError("supermap shapes do not match")
    if np.array_equal(theta.rep.choi, gamma.rep.choi):
        return SuperDivergenceEstimate(0.0, None, int(ref_dim), 0)

    a, b, _, _ = theta.dims
    ext_t = extend_super_with_identity(theta, ref_dim)
    ext_g = extend_super_with_identity(gamma, ref_dim)
    din, dout = ref_dim * a, ref_dim * b
    rows, cols = dout * env_dim, din
    nparams = 2 * rows * cols
    inner = inner_opts if inner_opts is not None else OptimizerOpts(
        restarts=2, max_evals=300, seed=opts.seed
    )

    def witness_channel(x):
        blocks = _isometry_from_params(x, rows, cols).reshape(dout, env_dim, din)
        return channel_from_kraus([blocks[:, e, :] for e in range(env_dim)])

    def value_at(nch):
        return channel_divergence(
            apply_super(ext_t, nch), apply_super(ext_g, nch), inner
        ).value

    best_val, best_x = -np.inf, None
    for r in range(opts.restarts):
        rng = np.random.default_rng((opts.seed, r))
        x = rng.normal(size=nparams)
        val = value_at(witness_channel(x))
        for _ in range(opts.max_evals):
            trial = x + STEP_INIT * rng.normal(size=nparams)
            trial_val = value_at(witness_channel(trial))
            if trial_val > val:
                x, val = trial, trial_val
        if val > best_val:
            best_val, best_x = val, x
    return SuperDivergenceEstimate(
        float(best_val), witness_channel(best_x), int(ref_dim), opts.restarts
    )
