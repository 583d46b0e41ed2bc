"""Entropic functionals: relative entropy, channel divergence, channel entropy.

All logarithms are base 2.  A channel divergence D[N||M] is returned as an
interval [value, upper] with a witness that attains `value`, and with the
number of objective evaluations it took:

- replacer pairs and channels sharing a tele-covariance group get exact
  closed forms (value == upper);
- conditional-replacer references, M(X) = tr_B N(X) (x) gamma, which include
  the depolarizing and the thermal map, get a certified concave ascent: D is
  then a concave function of the input state, maximized by Blahut-Arimoto
  mirror steps on ln rho with safeguarded Anderson acceleration and an
  eigenvalue floor, and bounded above by the Frank-Wolfe duality gap
  (upper - value <= ASCENT_GAP, up to rounding);
- every other pair gets a restarted derivative-free search over pure
  bipartite inputs with reference dimension equal to the channel input
  dimension, a one-sided lower bound (upper = +inf).

The channel entropy is the negated divergence to the depolarizing map, a
conditional replacer with gamma = 1, so it always takes the certified ascent.
"""

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize

from .channels import (
    COVARIANCE_TOL,
    _kraus_from_spectrum,
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
# The certified ascent stops once its Frank-Wolfe gap, in bits, is this small,
# or after ASCENT_MAX_ITERS objective evaluations; the interval is sound either
# way.  Before each evaluation, the eigenvalues of rho are floored at
# ASCENT_FLOOR times the largest, which keeps the gap a bound on long runs.
ASCENT_GAP = 1e-10
ASCENT_MAX_ITERS = 5000
ASCENT_FLOOR = 1e-12
# Anderson acceleration of the ascent keeps the last ANDERSON_DEPTH steps; an
# accelerated point is kept only while rho's smallest eigenvalue is at least
# ANDERSON_MIN_EIG.
ANDERSON_DEPTH = 3
ANDERSON_MIN_EIG = 1e-6
LN2 = np.log(2)
TINY = np.finfo(float).tiny
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
    """The interval [value, upper] holding the quantity; value is its lower end.

    For a divergence, value is the objective at optimizer_state, and upper is
    +inf when the search is one-sided.  The certified path evaluates the
    objective without rel_entropy's support cutoff, so divergence_at at its
    witness agrees to rounding while no eigenvalue of the reference state
    falls below SUPPORT_CUTOFF.  An entropy negates the interval: its value is
    -upper of the divergence, and its upper end is the value at the witness.

    evaluations counts objective evaluations: 1 for a closed form, the
    ascent's evaluations on the certified path, and for the restarted search
    the simplex evaluations plus one at each restart's end and each witness.
    """

    value: float
    upper: float
    optimizer_state: Optional[PureBipartiteState]
    restarts_used: int
    per_restart_values: tuple
    converged: bool
    is_lower_bound: bool
    evaluations: int

    @property
    def certified(self):
        """True when [value, upper] came from a closed form or the certified ascent."""
        return self.restarts_used == 0 and bool(np.isfinite(self.upper))


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


def _sum_xlogx(w):
    """sum of w log2 w over the positive eigenvalues w, with 0 log 0 = 0.

    No cutoff: dropping small positive eigenvalues would drop negative terms
    and bias a divergence upward.
    """
    on = w > 0
    return float(np.sum(w[on] * np.log2(w[on])))


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
    first = _sum_xlogx(w)
    second = float(np.trace(rho @ _fn_from_spectrum(mu, u, "log2", SUPPORT_CUTOFF)).real)
    return first - second


def vn_entropy(rho):
    """von Neumann entropy -tr(rho log2 rho) of a PSD operator, in bits."""
    rho = np.asarray(rho, dtype=complex)
    w, _ = _psd_eig(rho, "operator")
    return -_sum_xlogx(w)


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
        upper=value,
        optimizer_state=maximally_entangled(dim),
        restarts_used=0,
        per_restart_values=(value,),
        converged=True,
        is_lower_bound=False,
        evaluations=1,
    )


def _params_to_state(x, dim):
    a = (x[: dim * dim] + 1j * x[dim * dim :]).reshape(dim, dim)
    nrm = np.linalg.norm(a)
    if nrm < 1e-12:
        a = np.eye(dim)
        nrm = np.linalg.norm(a)
    return pure_bipartite(a / nrm)


def _conditional_replacer(n, m):
    """(b, herm_eig(gamma)) when M(X) = tr_B N(X) (x) gamma, else None.

    The output of N splits as R' (x) B with dim_out = r' * b and b > 1; r' = 1
    is tried first.  gamma = tr_{A R'} Choi_M / dim_in must have full rank.
    """
    din, dout = n.dim_in, n.dim_out
    for b in range(dout, 1, -1):
        if dout % b:
            continue
        head = din * dout // b
        gamma = partial_trace(m.choi, (head, b), "second") / din
        marginal = partial_trace(n.choi, (head, b), "first")
        if np.linalg.norm(m.choi - np.kron(marginal, gamma)) > REPLACER_TOL:
            continue
        w, v = herm_eig(gamma)
        if w[0] > SUPPORT_CUTOFF:
            return b, w, v
    return None


class _BlockMap(NamedTuple):
    """The CP map x -> sum_q B_q x B_q^dagger of a stack of blocks B_q."""

    blocks: np.ndarray
    daggers: np.ndarray

    @classmethod
    def of(cls, blocks):
        return cls(blocks, blocks.conj().swapaxes(-1, -2))

    def apply(self, x):
        return (self.blocks @ x @ self.daggers).sum(axis=0)

    def adjoint(self, y):
        return (self.daggers @ y @ self.blocks).sum(axis=0)


class _AscentPoint(NamedTuple):
    """One evaluation of the certified ascent at rho = exp(x) / Z."""

    x: np.ndarray  # ln rho, floored and traceless, as a real vector: the iterate
    p: np.ndarray  # eigenvalues of rho, ascending
    v: np.ndarray  # eigenvectors of rho
    f: float  # objective, bits
    gap: float  # Frank-Wolfe gap, bits
    step: np.ndarray  # traceless part of the gradient in nats, as x: the unit step


def _flat(x):
    """A complex matrix as the real vector of its entries (a view)."""
    return x.reshape(-1).view(float)


def _certified_divergence(n, b, gamma_w, gamma_v):
    """D[N||M] for M(X) = tr_B N(X) (x) gamma, as a certified interval.

    With the Stinespring isometry V of N into R' (x) B (x) E and
    tau = tr_R' V rho V^dagger, the divergence at input state rho is
    f(rho) = H(B|E)_tau - tr N_B(rho) log2 gamma, concave in rho by strong
    subadditivity; D[N||M] = max_rho f.  Concavity bounds the maximum by
    f(rho) + lambda_max(grad) - tr rho grad at every rho, with grad the
    gradient of f; the loop stops on that gap, never on f, which flattens to
    rounding noise first.  Value and gap are read at one evaluated rho, so
    the interval is sound wherever the loop stops.

    The iterate is x = ln rho up to a multiple of 1.  The unit mirror step
    x <- x + grad (nats) is the Blahut-Arimoto iteration: f is 1-smooth
    relative to the von Neumann entropy (He, Saunderson & Fawzi, IEEE TIT
    2024), so it raises f, and it is always accepted.  Its fixed point is the
    maximum, so type-II Anderson acceleration (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011) over the last ANDERSON_DEPTH steps proposes a point;
    the proposal is kept only if f rises and rho's smallest eigenvalue stays
    at least ANDERSON_MIN_EIG, and otherwise the history is cleared and the
    next evaluation is a unit step.  While rho's smallest eigenvalue is below
    ANDERSON_MIN_EIG, only unit steps are taken.  Where the maximum lies on
    the boundary, unit steps drive an eigenvalue of rho to 0; once it reaches
    rounding level, -ln tau and +ln N^c(rho) cancel catastrophically in grad
    and the gap is no longer a bound.  So before each evaluation the
    eigenvalues of x are floored at max + ln ASCENT_FLOOR.  ASCENT_MAX_ITERS
    counts evaluations.
    """
    din, dout = n.dim_in, n.dim_out
    rp = dout // b
    # Linearly independent Kraus operators keep N^c(rho) full rank.
    kraus = np.array(_kraus_from_spectrum(*herm_eig(n.choi), din, dout))
    r = len(kraus)
    # iso[p, c, k] = (<p| (x) <c|) K_k: one block per basis state of R'.
    iso = kraus.reshape(r, rp, b, din).transpose(1, 2, 0, 3)
    to_be = _BlockMap.of(iso.reshape(rp, b * r, din))
    to_e = _BlockMap.of(iso.reshape(rp * b, r, din))
    ln_gamma = (gamma_v * np.log(gamma_w)) @ dagger(gamma_v)
    linear = to_be.adjoint(np.kron(ln_gamma, np.eye(r)))
    # tau stays inside the support of T(1), of dimension at most din * r';
    # compressed onto it, tau has full rank for every full-rank rho.
    t_w, t_v = herm_eig(to_be.apply(np.eye(din)))
    to_be = _BlockMap.of(dagger(t_v[:, t_w > SUPPORT_CUTOFF]) @ to_be.blocks)
    eye = np.eye(din)
    ln_floor = np.log(ASCENT_FLOOR)

    def floored(x):
        """Spectrum of ln rho for the real vector x, floored and traceless."""
        h_w, h_v = np.linalg.eigh(x.view(complex).reshape(din, din))
        h_w = np.maximum(h_w, h_w[-1] + ln_floor)
        h_w -= h_w.mean()
        p = np.exp(h_w - h_w[-1])
        return h_w, h_v, p / p.sum()

    def evaluate(h_w, h_v, p):
        rho = (h_v * p) @ dagger(h_v)
        # f ln 2 = tr N^c(rho) ln N^c(rho) - tr tau ln tau - tr rho linear,
        # and grad is its derivative up to a multiple of 1.
        grad = -linear
        f = -np.vdot(rho, linear).real
        for sign, part in ((-1.0, to_be), (1.0, to_e)):
            w, v = np.linalg.eigh(part.apply(rho))
            ln_w = np.log(np.maximum(w, TINY))
            grad = grad + sign * part.adjoint((v * ln_w) @ dagger(v))
            f += sign * np.dot(np.maximum(w, 0.0), ln_w)
        grad = (grad + dagger(grad)) / 2
        # Nonnegative in exact arithmetic: tr rho grad is an average of its spectrum.
        gap = max(np.linalg.eigvalsh(grad)[-1] - np.vdot(rho, grad).real, 0.0)
        step = grad - (np.trace(grad).real / din) * eye
        x = (h_v * h_w) @ dagger(h_v)
        return _AscentPoint(_flat(x), p, h_v, f / LN2, gap / LN2, _flat(step))

    point = evaluate(*floored(np.zeros(2 * din * din)))
    evaluations = 1
    dxs, dsteps = deque(maxlen=ANDERSON_DEPTH), deque(maxlen=ANDERSON_DEPTH)
    while point.gap > ASCENT_GAP and evaluations < ASCENT_MAX_ITERS:
        cand = point.x + point.step
        if dxs:
            dx, dstep = np.array(dxs).T, np.array(dsteps).T
            cand -= (dx + dstep) @ np.linalg.lstsq(dstep, point.step)[0]
        h_w, h_v, p = floored(cand)
        # An accelerated point too close to the boundary is dropped unevaluated.
        new = None
        if not dxs or p[0] >= ANDERSON_MIN_EIG:
            new = evaluate(h_w, h_v, p)
            evaluations += 1
        if dxs and (new is None or not new.f > point.f):
            dxs.clear()
            dsteps.clear()
            continue
        # Near the boundary no accelerated point would be kept, so unit steps
        # follow without proposals.
        if new.p[0] >= ANDERSON_MIN_EIG:
            dxs.append(new.x - point.x)
            dsteps.append(new.step - point.step)
        point = new

    f, gap = float(point.f), float(point.gap)
    # rho is the input marginal of the pure state with amplitude sqrt(rho)^T.
    state = pure_bipartite(((point.v * np.sqrt(point.p)) @ dagger(point.v)).T)
    return DivergenceResult(
        value=f,
        upper=f + gap,
        optimizer_state=state,
        restarts_used=0,
        per_restart_values=(f,),
        converged=gap <= ASCENT_GAP,
        is_lower_bound=False,
        evaluations=evaluations,
    )


def channel_divergence(n, m, opts=OptimizerOpts(), witnesses=()):
    """Channel relative entropy D[N||M] as an interval [value, upper].

    Closed forms and conditional-replacer references are exact or certified
    (see the module docstring).  Other pairs get the restarted search, whose
    value is a lower bound; extra pure bipartite states in `witnesses` are
    evaluated alongside its restarts, so the value dominates every supplied
    feasible point.
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
    conditional = _conditional_replacer(n, m)
    if conditional is not None:
        return _certified_divergence(n, *conditional)
    return _restarted_search(n, m, opts, witnesses)


def _restarted_search(n, m, opts, witnesses=()):
    """Nelder-Mead over pure bipartite amplitudes: a lower bound on D[N||M]."""
    dim = n.dim_in
    nparams = 2 * dim * dim

    def neg_objective(x):
        val = divergence_at(n, m, _params_to_state(x, dim))
        return -min(val, CAP)

    best_val = -np.inf
    best_state = None
    per_restart = []
    best_success = False
    evaluations = opts.restarts + len(witnesses)
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
        evaluations += res.nfev
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
        upper=np.inf,
        optimizer_state=best_state,
        restarts_used=opts.restarts,
        per_restart_values=tuple(per_restart),
        converged=best_success,
        is_lower_bound=True,
        evaluations=evaluations,
    )


def _negated(div):
    """The entropy interval [-upper, -value] from a divergence result."""
    return replace(
        div,
        value=-div.upper,
        upper=-div.value,
        per_restart_values=tuple(-v for v in div.per_restart_values),
    )


def channel_entropy(n):
    """Channel entropy, the negated divergence to the depolarizing map.

    The depolarizing map R(X) = tr(X) 1 is the conditional replacer with B
    the whole output and gamma = 1, so every certified CPTP channel takes the
    certified ascent and the result is a certified interval.
    """
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    d = n.dim_out
    return _negated(_certified_divergence(n, d, np.ones(d), np.eye(d)))


def channel_entropy_telecov(n):
    """Exact channel entropy S(C_N) - log2 dim_in for tele-covariant channels."""
    if n.telecov is None:
        raise ValueError("channel carries no tele-covariance data")
    res = covariance_residual(n.telecov, n)
    if res > COVARIANCE_TOL:
        raise ValueError(f"covariance residual too large: {res:.3e}")
    return vn_entropy(n.normalized_choi) - np.log2(n.dim_in)


def channel_entropy_beta(n, thermal, opts=OptimizerOpts()):
    """Entropy against the completely thermalizing reference exp(-beta H).

    Certified whenever exp(-beta H) has full rank; otherwise the restarted
    search under opts gives the upper end only.
    """
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    m = thermal_map(thermal)
    return _negated(channel_divergence(n, m, opts))
