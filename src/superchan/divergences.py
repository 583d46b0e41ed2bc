"""Entropic functionals: relative entropy, channel divergence, channel entropy.

All logarithms are base 2.  A channel divergence D[N||M] is returned as a
certified interval [value, upper] with a witness that attains `value`, and
with the number of objective evaluations it took.  The divergence at input
state rho is a concave function of rho, maximized by an ascent (one mirror
step on ln rho, then damped Newton steps on rho with the exact Hessian,
regularized where it is nearly flat) and bounded above by its Frank-Wolfe
duality gap (upper - value <= ASCENT_GAP, up to rounding):

- conditional-replacer references, M(X) = tr_B N(X) (x) gamma, take a
  cheaper objective that reads gamma only through ln gamma;
- every other pair takes a general objective, or is +inf when the supports
  leak.

Both objectives return their Hessian on traceless Hermitian directions,
built from the divided differences of ln and of x ln x at the spectra that
each evaluation already decomposes.

Channel entropies negate the divergence to X -> tr(X) 1 or to
X -> tr(X) exp(-beta H), both conditional replacers.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channels import (
    TP_TOL,
    is_cptp,
    kraus_from_choi,
    thermal_map,
)
from .linalg import (
    SUPPORT_CUTOFF,
    dagger,
    eigh,
    eigvalsh,
    herm_eig,
    kron,
    mat_fn_psd,
    partial_trace,
    psd_check,
    support_projector,
)

LEAK_TOL = 1e-8
RANK_CUTOFF = 1e-6
# The mirror ascent stops at the first evaluated point whose Frank-Wolfe gap,
# in bits, is this small, or after ASCENT_MAX_ITERS evaluations on a
# conditional replacer (max_evals per start otherwise).  Before each
# evaluation the eigenvalues of rho are floored at ASCENT_FLOOR times the
# largest: unfloored, steps toward a boundary maximum reach rounding level,
# where the gradient cancels and the gap is no bound.
ASCENT_GAP = 1e-10
ASCENT_MAX_ITERS = 5000
ASCENT_FLOOR = 1e-12
LN_ASCENT_FLOOR = np.log(ASCENT_FLOOR)
# A unit step that lowers f by more than ASCENT_DROP * max(1, |f|) is retried
# at half length; on the certified path f is relatively smooth, so unit steps
# raise it and no step is retried.  A point within ASCENT_GAP that lowers f by
# no more than this ends the ascent.
ASCENT_DROP = 1e-13
# After its first step the ascent proposes damped Newton points rho + t Delta
# for t = 1, 1/2, ... down to NEWTON_MIN_LENGTH; one whose smallest eigenvalue
# is below NEWTON_MIN_EIG is not evaluated.
NEWTON_MIN_LENGTH = 1 / 8
NEWTON_MIN_EIG = 1e-6
# Divided differences of points this close, relative to the larger, read the
# derivatives instead.
DIVDIFF_TOL = 1e-6
LN2 = np.log(2)
TINY = np.finfo(float).tiny
_TRACELESS_BASES = {}  # dim -> the read-only basis of _traceless_basis
_MAXIMALLY_ENTANGLED = {}  # dim -> the state of maximally_entangled


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
    def marginal_ref(self):
        return self.a_psi @ dagger(self.a_psi)


def choi_witness(n, psi):
    """(id (x) N)(psi), the normalized Choi state of N in the coordinates of psi."""
    sandwich = kron(psi.a_psi, np.eye(n.dim_out))
    return sandwich @ n.choi @ dagger(sandwich)


@dataclass(frozen=True)
class OptimizerOpts:
    restarts: int = 32
    max_evals: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class DivergenceResult:
    """The interval [value, upper] holding the quantity; value is its lower end.

    For a divergence, value is the objective at optimizer_state and upper is
    value plus a Frank-Wolfe gap, so both ends are finite unless the supports
    leak, where both are +inf.  The ascent evaluates the objective without
    rel_entropy's support cutoff, so divergence_at at its witness agrees to
    rounding while no eigenvalue of the reference state falls below
    SUPPORT_CUTOFF.  It stops at its first point within ASCENT_GAP that
    lowers f by at most ASCENT_DROP * max(1, |f|).  An entropy negates the
    interval: its value is -upper of the divergence, and its upper end is the
    value at the witness.

    restarts_used counts the general objective's ascent starts (0 on a
    conditional replacer or a leak), per_restart_values their values and
    evaluations the objective evaluations.  is_lower_bound is False.
    """

    value: float
    upper: float
    optimizer_state: PureBipartiteState
    restarts_used: int
    per_restart_values: tuple
    converged: bool
    is_lower_bound: bool
    evaluations: int


def pure_bipartite(a_psi):
    """Normalize an amplitude matrix into a PureBipartiteState."""
    a = np.asarray(a_psi, dtype=complex)
    nrm = np.linalg.norm(a)
    if nrm == 0:
        raise ValueError("amplitude matrix is zero")
    return PureBipartiteState(a / nrm)


def maximally_entangled(dim):
    """The maximally entangled state of dim, built once per dim; its a_psi is read-only."""
    if dim not in _MAXIMALLY_ENTANGLED:
        psi = pure_bipartite(np.eye(dim) / np.sqrt(dim))
        psi.a_psi.setflags(write=False)
        _MAXIMALLY_ENTANGLED.setdefault(dim, psi)
    return _MAXIMALLY_ENTANGLED[dim]


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
    chk = psd_check(w)
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
    proj = support_projector(mu, u)
    leak = np.trace(rho @ (np.eye(rho.shape[0]) - proj)).real
    if leak > LEAK_TOL:
        return np.inf
    first = _sum_xlogx(w)
    second = float(np.trace(rho @ mat_fn_psd(mu, u, np.log2)).real)
    return first - second


def vn_entropy(rho):
    """von Neumann entropy -tr(rho log2 rho) of a PSD operator, in bits."""
    rho = np.asarray(rho, dtype=complex)
    w, _ = _psd_eig(rho, "operator")
    return -_sum_xlogx(w)


def divergence_at(n, m, psi):
    """D((id (x) N)Psi || (id (x) M)Psi) at one pure bipartite witness."""
    return rel_entropy(choi_witness(n, psi), choi_witness(m, psi))


def _conditional_replacer(n, m):
    """(b, ln gamma) when M(X) = tr_B N(X) (x) gamma, else None.

    The output of N splits as R' (x) B with dim_out = r' * b and b > 1; r' = 1
    is tried first.  gamma = tr_{A R'} Choi_M / dim_in must have full rank.
    Choi_M may differ from tr_B Choi_N (x) gamma by TP_TOL ||gamma||: for
    M(X) = tr(X) gamma that difference is N's TP residual (x) gamma, which a
    certified CPTP N keeps within it.
    """
    din, dout = n.dim_in, n.dim_out
    for b in range(dout, 1, -1):
        if dout % b:
            continue
        head = din * dout // b
        gamma = partial_trace(m.choi, (head, b), "second") / din
        marginal = partial_trace(n.choi, (head, b), "first")
        if np.linalg.norm(m.choi - kron(marginal, gamma)) > TP_TOL * np.linalg.norm(gamma):
            continue
        w, v = herm_eig(gamma)
        if w[0] > SUPPORT_CUTOFF:
            return b, (v * np.log(w)) @ dagger(v)
    return None


def _block_superop(blocks):
    """sum_q B_q (x) conj(B_q), the matrix of x -> sum_q B_q x B_q^dagger on row-major vec(x)."""
    _, m, d = blocks.shape
    return np.einsum("qij,qkl->ikjl", blocks, blocks.conj()).reshape(m * m, d * d)


def _divided_differences(x, fx, dfx, d2fx=None):
    """First divided differences f[x_i, x_j] at ascending positive x, then f[x_i, x_j, x_k].

    fx, dfx and d2fx hold f, f' and f'' at x.  Points within DIVDIFF_TOL of
    each other, relative to the larger, count as equal, and the confluent
    differences there read the derivatives.  The second differences are
    returned only when d2fx is given.
    """
    dx = x[:, None] - x
    close = np.abs(dx) <= DIVDIFF_TOL * np.maximum.outer(x, x)
    apart = np.where(close, 1.0, dx)
    first = np.where(close, np.add.outer(dfx, dfx) / 2, np.subtract.outer(fx, fx) / apart)
    if d2fx is None:
        return first
    # d/dx_i f[x_i, x_j], the confluent f[x_i, x_j, x_i].
    slope = np.where(close, np.add.outer(d2fx, d2fx) / 4, (dfx[:, None] - first) / apart)
    second = (first[:, :, None] - first) / apart[:, None, :]
    return first, np.where(close[:, None, :], (slope[:, :, None] + slope.T) / 2, second)


def _in_eigenbasis(images, v):
    """The rows vec(X_i) of images, X_i Hermitian, as the rows vec(V^dagger X_i V)."""
    n, k = len(images), len(v)
    xv = (images.reshape(-1, k) @ v).reshape(n, k, k)
    # (X V)^T conj(V) = (V^dagger X V)^T, the conjugate of V^dagger X V.
    return (xv.transpose(0, 2, 1).reshape(-1, k) @ v.conj()).reshape(n, k * k).conj()


def _traceless_basis(d):
    """The traceless Hermitian d x d matrices' orthonormal basis, (d^2 - 1, d, d), read-only."""
    if d not in _TRACELESS_BASES:
        basis = []
        for j in range(d):
            for k in range(j + 1, d):
                for entry in (1.0, 1j):
                    e = np.zeros((d, d), dtype=complex)
                    e[j, k], e[k, j] = entry / np.sqrt(2), np.conj(entry) / np.sqrt(2)
                    basis.append(e)
        for k in range(1, d):
            diag = np.r_[np.ones(k), -k, np.zeros(d - k - 1)] / np.sqrt(k * (k + 1))
            basis.append(np.diag(diag).astype(complex))
        stack = np.array(basis).reshape(len(basis), d, d)
        stack.setflags(write=False)
        _TRACELESS_BASES.setdefault(d, stack)
    return _TRACELESS_BASES[d]


class _AscentPoint(NamedTuple):
    """One evaluation of the ascent at rho = v diag(p) v^dagger."""

    ln_p: np.ndarray  # eigenvalues of ln rho, floored and traceless
    rho: np.ndarray  # the evaluated state
    p: np.ndarray  # eigenvalues of rho, ascending
    v: np.ndarray  # eigenvectors of rho
    f: float  # objective, bits
    gap: float  # Frank-Wolfe gap, bits
    step: np.ndarray  # traceless part of the gradient in nats, as a real vector
    hessian: object  # () -> the Hessian on _traceless_basis, nats


def _flat(x):
    """A complex matrix as the real vector of its entries (a view)."""
    return x.reshape(-1).view(float)


def _floored(h_w, h_v):
    """The spectrum of ln rho floored and made traceless, and rho's, from ln rho's eigh."""
    h_w = np.maximum(h_w, h_w[-1] + LN_ASCENT_FLOOR)
    h_w -= h_w.sum() / len(h_w)
    p = np.exp(h_w - h_w[-1])
    return h_w, h_v, p / p.sum()


def _witness(point):
    """The pure state with amplitude sqrt(rho)^T, whose input marginal is rho."""
    return pure_bipartite(((point.v * np.sqrt(point.p)) @ dagger(point.v)).T)


def _newton_proposals(point, d):
    """Floored spectra of rho + t Delta, t = 1, 1/2, ... down to NEWTON_MIN_LENGTH.

    Delta = -H^-1 grad is the Newton step, with H and grad read on the
    traceless Hermitian basis of _traceless_basis and the eigenvalues of H
    clipped at -||grad|| (regularized Newton), so that a flat or convex
    direction cannot blow the step up.  Nothing is proposed unless H is
    finite, and a length whose rho + t Delta has an eigenvalue below
    NEWTON_MIN_EIG is skipped unevaluated.
    """
    basis = _traceless_basis(d)
    flat_basis = basis.reshape(len(basis), -1).view(float)
    hessian = point.hessian()
    # An eigenvalue of the decomposed spectra at rounding level, clamped to
    # TINY, can overflow the divided differences.
    if not np.isfinite(hessian).all():
        return
    h_w, h_v = eigh(hessian)
    h_w = np.minimum(h_w, -np.linalg.norm(point.step))
    delta = ((h_v @ ((point.step @ flat_basis.T) @ h_v / -h_w)) @ flat_basis).view(complex)
    length = 1.0
    while length >= NEWTON_MIN_LENGTH:
        w, v = eigh(point.rho + length * delta.reshape(d, d))
        if w[0] >= NEWTON_MIN_EIG:
            yield _floored(np.log(w), v)
        length /= 2


def _ascend(objective, d, x, max_evals):
    """Ascent from the real vector x = ln rho: the last point and its evaluations.

    objective(rho) returns f ln 2, its gradient grad in nats up to a multiple
    of 1, and a function that returns the Hessian of f ln 2 on the traceless
    Hermitian basis of _traceless_basis.  The first step is the unit mirror
    step x <- x + grad, whose fixed points are the stationary points of f.
    Every later step first tries damped, regularized Newton proposals on
    rho (see _newton_proposals), unless rho's smallest eigenvalue is below
    NEWTON_MIN_EIG, and takes the first one that raises f; when none does it
    falls back to the unit mirror step, halved while it lowers f by more than
    ASCENT_DROP * max(1, |f|) (never on the certified objective, see
    _certified_divergence).  The ascent returns the first evaluated point
    whose Frank-Wolfe gap lambda_max(grad) - tr rho grad is at most
    ASCENT_GAP bits and whose f is not below the current point's by more than
    ASCENT_DROP * max(1, |f|), a Newton proposal included; otherwise it stops
    after max_evals evaluations.
    """

    def evaluate(h_w, h_v, p):
        rho = (h_v * p) @ dagger(h_v)
        f, grad, hessian = objective(rho)
        grad = (grad + dagger(grad)) / 2
        # Nonnegative in exact arithmetic: tr rho grad is an average of its spectrum.
        gap = max(eigvalsh(grad)[-1] - np.vdot(rho, grad).real, 0.0)
        # The unit step: grad with its trace taken off the diagonal.
        grad.flat[:: d + 1] -= np.trace(grad).real / d
        return _AscentPoint(h_w, rho, p, h_v, f / LN2, gap / LN2, _flat(grad), hessian)

    def mirror(x):
        return evaluate(*_floored(*eigh(x.view(complex).reshape(d, d))))

    start = point = mirror(x)
    evaluations = 1
    while point.gap > ASCENT_GAP and evaluations < max_evals:
        low = point.f - ASCENT_DROP * max(1.0, abs(point.f))
        new = None
        newton = point is not start and point.p[0] >= NEWTON_MIN_EIG
        for spectrum in _newton_proposals(point, d) if newton else ():
            cand = evaluate(*spectrum)
            evaluations += 1
            # Certified and no lower than rounding: f there differs from the
            # current point's by rounding alone, so stop at it.
            if cand.gap <= ASCENT_GAP and cand.f >= low:
                return cand, evaluations
            if cand.f > point.f:
                new = cand
                break
            if evaluations >= max_evals:
                return point, evaluations
        x = _flat((point.v * point.ln_p) @ dagger(point.v))
        length = 1.0
        while new is None and evaluations < max_evals:
            cand = mirror(x + length * point.step)
            evaluations += 1
            if cand.gap <= ASCENT_GAP and cand.f >= low:
                return cand, evaluations
            if cand.f < low:
                length /= 2
            else:
                new = cand
        if new is None:
            break
        point = new
    return point, evaluations


def _certified_objective(n, b, ln_gamma):
    """The objective of D[N||M] for M(X) = tr_B N(X) (x) gamma, in nats (see _ascend).

    With the Stinespring isometry V of N into R' (x) B (x) E and
    tau = tr_R' V rho V^dagger, f ln 2 = tr N^c ln N^c - tr tau ln tau -
    tr rho linear, where N^c(rho) = tr_R'B V rho V^dagger and linear = N_B^*(ln
    gamma).  One block-diagonal map sends rho to M = tau (+) N^c(rho), so an
    evaluation takes one eigh of M and one matmul back through its adjoint,
    signed -1 on the tau block and +1 on the N^c block.  The forward map's
    off-block rows are zero, so ln M is block-diagonal even where the blocks
    share eigenvalues, and the signed adjoint reads only its diagonal blocks.
    The Hessian on the traceless basis E_i is S F(E_i) . Dln(M)[F(E_j)], with
    F the forward map, S the block signs and Dln(M) the divided differences
    of ln in M's eigenbasis; it is computed only when called.
    """
    din, dout = n.dim_in, n.dim_out
    rp = dout // b
    # Linearly independent Kraus operators keep N^c(rho) full rank.
    kraus = kraus_from_choi(n.choi, din, dout)
    r = len(kraus)
    # iso[p, c, k] = (<p| (x) <c|) K_k: one block per basis state of R'.
    iso = kraus.reshape(r, rp, b, din).transpose(1, 2, 0, 3)
    to_be = iso.reshape(rp, b * r, din)
    linear = np.einsum("pji,jk,pkl->il", to_be.conj(), kron(ln_gamma, np.eye(r)), to_be)
    # tau stays inside the support of T(1) = sum_p B_p B_p^dagger, of dimension
    # at most din * r'; compressed onto it, tau has full rank for every
    # full-rank rho.
    t_w, t_v = herm_eig(np.einsum("pij,pkj->ik", to_be, to_be.conj()))
    tau_blocks = dagger(t_v[:, t_w > SUPPORT_CUTOFF]) @ to_be
    kt = tau_blocks.shape[1]
    k = kt + r
    blocks = np.zeros((rp + rp * b, k, din), dtype=complex)
    blocks[:rp, :kt] = tau_blocks
    blocks[rp:, kt:] = iso.reshape(rp * b, r, din)
    forward = _block_superop(blocks)
    sign = np.ones((k, k))
    sign[:kt, :kt] = -1.0
    signed_adjoint = np.ascontiguousarray(dagger(forward)) * sign.reshape(-1)
    # S F(E_i), then F(E_i), for the basis E_i of _traceless_basis, as rows.
    n_dir = din * din - 1
    images = _traceless_basis(din).reshape(n_dir, din * din) @ forward.T
    images = np.concatenate([images * sign.reshape(-1), images])

    def objective(rho):
        m = (forward @ rho.reshape(-1)).reshape(k, k)
        w, v = eigh(m)
        w = np.maximum(w, TINY)
        ln_w = np.log(w)
        ln_m = (v * ln_w) @ dagger(v)
        f = np.vdot(sign * m, ln_m).real - np.vdot(rho, linear).real

        def hessian():
            # D^2 f[E_i, E_j] = tr S F(E_i) Dln(M)[F(E_j)], read in M's eigenbasis.
            y = _in_eigenbasis(images, v)
            kernel = _divided_differences(w, ln_w, 1 / w).reshape(-1)
            return (y[:n_dir].conj() @ (kernel * y[n_dir:]).T).real

        return f, (signed_adjoint @ ln_m.reshape(-1)).reshape(din, din) - linear, hessian

    return objective


def _certified_divergence(n, b, ln_gamma):
    """D[N||M] for M(X) = tr_B N(X) (x) gamma, as a certified interval.

    The divergence at input state rho is f(rho) = H(B|E)_tau - tr N_B(rho)
    log2 gamma (see _certified_objective), concave in rho by strong
    subadditivity; D[N||M] = max_rho f <= f + gap at every rho, and value and
    gap are read at one evaluated rho, so the interval is sound wherever the
    ascent stops.  f is 1-smooth relative to the von Neumann entropy (He,
    Saunderson & Fawzi, IEEE TIT 2024), so each unit step, a Blahut-Arimoto
    iteration, raises f.  gamma enters only as ln gamma, so no cutoff applies.
    """
    din = n.dim_in
    objective = _certified_objective(n, b, ln_gamma)
    point, evaluations = _ascend(objective, din, np.zeros(2 * din * din), ASCENT_MAX_ITERS)
    f, gap = float(point.f), float(point.gap)
    return DivergenceResult(
        value=f, upper=f + gap, optimizer_state=_witness(point), restarts_used=0,
        per_restart_values=(f,), converged=gap <= ASCENT_GAP, is_lower_bound=False,
        evaluations=evaluations,
    )


def _general_objective(n, m):
    """The objective of D[N||M] in nats (see _ascend), or None when the supports leak.

    f(rho) = D((id (x) N) psi^rho || (id (x) M) psi^rho), with psi^rho a
    purification of rho, is concave in rho for every CP map M.  Write
    rho = sum_x l_x rho_x and omega = sum_x l_x |x><x| (x) psi^{rho_x}.  By
    the direct-sum rule of the relative entropy, sum_x l_x f(rho_x) =
    D((id (x) N) omega || (id (x) M) omega).  omega extends rho, so
    omega = (E (x) id)(psi^rho) for some channel E from the purifying
    reference to X (x) R; E acts on the reference, so it commutes with N and
    M, and data processing under E bounds that divergence by f(rho).  So
    D[N||M] = max_rho f <= f + gap at every rho, with gap the Frank-Wolfe gap.

    With C_N = A A^dagger, C_M = B B^dagger (eigenvalues above SUPPORT_CUTOFF)
    and Q = (B^+ C_N B^+dagger)^T, f = [tr Phi ln Phi - tr Q G ln G] / ln 2,
    where Phi = N^c(rho) and G = M^c(rho) = V diag(g) V^dagger are the
    complementary outputs of the minimal Kraus stacks that A and B reshape
    into.  Each is one block map of rho, as the certified objective's N^c
    block is, so an evaluation takes one matmul and one eigh per term, and
    the gradient is ln Phi + 1 and V (Gam o V^dagger Q V) V^dagger sent back
    through the adjoint maps, with Gam_ij = ln(g_i g_j) / 2 + w coth w,
    w = ln(g_i / g_j) / 2, the divided differences of x ln x (ln g_i + 1 on
    the diagonal).  The Hessian reads tr Phi ln Phi through the divided
    differences of ln, as the certified objective does, and tr Q G ln G
    through the second divided differences of x ln x; it is computed only
    when called.

    The supports leak when C_N / d, the Choi state at rho = 1/d, has weight
    above LEAK_TOL off the support that B keeps; f is then +inf at every
    full-rank rho.
    """
    d, dout = n.dim_in, n.dim_out
    b_w, b_v = herm_eig(m.choi)
    on = b_w > SUPPORT_CUTOFF
    b_w, b_v = b_w[on], b_v[:, on]
    kept = dagger(b_v) @ n.choi @ b_v
    if (np.trace(n.choi) - np.trace(kept)).real / d > LEAK_TOL:
        return None
    q = (kept / np.sqrt(np.outer(b_w, b_w))).T
    # Block o of a complementary map stacks the rows <o| K_k of the Kraus operators.
    n_blocks = kraus_from_choi(n.choi, d, dout).transpose(1, 0, 2)
    m_blocks = (b_v * np.sqrt(b_w)).reshape(d, dout, -1).transpose(1, 2, 0)
    rn, rm = n_blocks.shape[1], m_blocks.shape[1]
    n_forward, m_forward = _block_superop(n_blocks), _block_superop(m_blocks)
    n_adjoint = np.ascontiguousarray(dagger(n_forward))
    m_adjoint = np.ascontiguousarray(dagger(m_forward))
    # F(E_i) for the basis E_i of _traceless_basis, as rows, for each map F.
    basis = _traceless_basis(d).reshape(d * d - 1, d * d)
    n_images, m_images = basis @ n_forward.T, basis @ m_forward.T

    def objective(rho):
        phi_w, phi_v = eigh((n_forward @ rho.reshape(-1)).reshape(rn, rn))
        g_w, g_v = eigh((m_forward @ rho.reshape(-1)).reshape(rm, rm))
        ln_phi = np.log(np.maximum(phi_w, TINY))
        ln_g = np.log(np.maximum(g_w, TINY))
        qv = dagger(g_v) @ q @ g_v
        f = np.dot(np.maximum(phi_w, 0.0), ln_phi) - np.dot(qv.diagonal().real, g_w * ln_g)
        w = (ln_g[:, None] - ln_g) / 2
        w_coth_w = np.divide(w, np.tanh(w), out=np.ones_like(w), where=w != 0)
        gam = (ln_g[:, None] + ln_g) / 2 + w_coth_w
        grad = n_adjoint @ ((phi_v * (ln_phi + 1)) @ dagger(phi_v)).reshape(-1)
        grad -= m_adjoint @ (g_v @ (gam * qv) @ dagger(g_v)).reshape(-1)

        def hessian():
            # Each term in its own eigenbasis; with T the second divided
            # differences of x ln x at g,
            # tr Q D^2(G ln G)[X, Y] = sum_abc Q_ba T_acb (X_ac Y_cb + Y_ac X_cb).
            y = _in_eigenbasis(n_images, phi_v)
            x = _in_eigenbasis(m_images, g_v).reshape(len(m_images), rm, rm)
            phi, g = np.maximum(phi_w, TINY), np.maximum(g_w, TINY)
            kernel = _divided_differences(phi, ln_phi, 1 / phi).reshape(-1)
            _, second = _divided_differences(g, g * ln_g, ln_g + 1, 1 / g)
            u = np.einsum("acb,ba,jcb->jac", second, qv, x)
            flat = len(m_images), rm * rm
            cross = (x.reshape(flat) @ u.reshape(flat).T).real
            return (y.conj() @ (kernel * y).T).real - cross - cross.T

        return f, grad.reshape(d, d), hessian

    return objective


def _searched_divergence(n, m, opts):
    """D[N||M] for any pair: +inf if the supports leak, else a certified interval.

    Each ascent on _general_objective gives an [f, f + gap] that holds
    D[N||M], and the result is their intersection.  The first starts at
    rho = 1/d; while the intersection is wider than ASCENT_GAP, start
    r < opts.restarts begins at the input marginal of the Gaussian pure
    state from default_rng((seed, r)).  A leak counts as one evaluation, the
    factorization that finds it.
    """
    d = n.dim_in
    objective = _general_objective(n, m)
    if objective is None:
        return DivergenceResult(
            value=np.inf, upper=np.inf, optimizer_state=maximally_entangled(d), restarts_used=0,
            per_restart_values=(np.inf,), converged=True, is_lower_bound=False, evaluations=1,
        )

    def start(r):
        if r == 0:
            return np.zeros(2 * d * d)
        g = np.random.default_rng((opts.seed, r)).normal(size=2 * d * d)
        amp = (g[: d * d] + 1j * g[d * d :]).reshape(d, d)
        w, v = eigh(amp.T @ amp.conj())
        return _flat((v * np.log(np.maximum(w, TINY))) @ dagger(v))

    runs = []
    for r in range(opts.restarts):
        runs.append(_ascend(objective, d, start(r), opts.max_evals))
        best = max((p for p, _ in runs), key=lambda p: p.f)
        upper = min(float(p.f + p.gap) for p, _ in runs)
        if upper - best.f <= ASCENT_GAP:
            break
    value = float(best.f)
    return DivergenceResult(
        value=value, upper=upper, optimizer_state=_witness(best), restarts_used=len(runs),
        per_restart_values=tuple(float(p.f) for p, _ in runs), converged=upper - value <= ASCENT_GAP,
        is_lower_bound=False, evaluations=sum(used for _, used in runs),
    )


def channel_divergence(n, m, opts=OptimizerOpts()):
    """Channel relative entropy D[N||M] as a certified interval [value, upper].

    A conditional-replacer reference takes its own objective, every other
    pair the general one (see the module docstring); only the general one
    reads opts.
    """
    if (n.dim_in, n.dim_out) != (m.dim_in, m.dim_out):
        raise ValueError("channel dimensions do not match")
    if not is_cptp(n):
        raise ValueError("first argument must be certified CPTP")
    if m.flags.cp.status != "yes":
        raise ValueError("second argument must be certified CP")

    conditional = _conditional_replacer(n, m)
    if conditional is not None:
        return _certified_divergence(n, *conditional)
    return _searched_divergence(n, m, opts)


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
    return _negated(_certified_divergence(n, d, np.zeros((d, d))))


def channel_entropy_beta(n, thermal):
    """Entropy against the completely thermalizing reference exp(-beta H).

    The reference is the conditional replacer with B the whole output and
    ln gamma = -beta H, so the result is a certified interval at every beta.
    """
    if not is_cptp(n):
        raise ValueError("channel must be certified CPTP")
    if thermal_map(thermal).dim_out != n.dim_out:  # also rejects beta < 0 and H < 0
        raise ValueError("hamiltonian dimension does not match the channel output")
    ln_gamma = -thermal.beta * np.asarray(thermal.hamiltonian, dtype=complex)
    return _negated(_certified_divergence(n, n.dim_out, ln_gamma))
