import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superchan import bounds, channels, cli, divergences as dv, linalg, superchannels as sc


def rand_full_rank_witness(rng, d):
    while True:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        psi = dv.pure_bipartite(g)
        if psi.full_rank:
            return psi


def permutation_unitary(dims, perm):
    """Unitary sending |x_0,...,x_{n-1}> to |x_{perm[0]},...,x_{perm[n-1]}>."""
    d = int(np.prod(dims))
    new_idx = np.arange(d).reshape(dims).transpose(tuple(perm)).reshape(-1)
    return np.eye(d)[new_idx]


def apply_super_dilation(theta, n):
    """Output channel via the physical dilation post o (N (x) id_R) o pre (reference route)."""
    pre, post, r = theta.dilation
    return channels.compose(
        post, channels.compose(channels.tensor_channels(n, channels.identity_channel(r)), pre)
    )


def random_dilation_super(seed, a=2, b=2, c=2, d=2, r=2):
    pre = channels.random_channel(c, a * r, 2, seed=seed)
    post = channels.random_channel(b * r, d, max(2, (b * r) // d + 1), seed=seed + 1)
    return sc.super_from_dilation(pre, post, ref_dim=r)


def completion_sigma0(base, fixed):
    """The sigma0 of T' = T + (tr X - tr T(X)) sigma0, read back at X = 1 - T*(1)."""
    x = np.eye(base.dim_in) - channels.apply_adjoint(base, np.eye(base.dim_out))
    return (channels.apply(fixed, x) - channels.apply(base, x)) / np.trace(x @ x)


def einsum_rep_choi(pre, post, r):
    """Rep Choi of a dilation by one 4-operand einsum over both Kraus sets (reference route)."""
    a, b = pre.dim_out // r, post.dim_in // r
    c, d = pre.dim_in, post.dim_out
    pk = np.stack([k.reshape(a, r, c) for k in pre.kraus])
    qk = np.stack([k.reshape(d, b, r) for k in post.kraus])
    c8 = np.einsum("parm,pesn,qdbr,qgfs->abmdefng", pk, pk.conj(), qk, qk.conj())
    return c8.reshape(a * b * c * d, a * b * c * d)


def tensordot_rep_choi(pre, post, r):
    """Rep Choi of a dilation from each side's Kraus-pair sums and one matmul over the
    reference pair (r, s), c8[abmdefng] = sum_rs pre[armesn] post[dbrgfs] (reference route)."""
    a, b = pre.dim_out // r, post.dim_in // r
    c, d = pre.dim_in, post.dim_out
    pk = pre.kraus.reshape(-1, a, r, c)
    qk = post.kraus.reshape(-1, d, b, r)
    pre_rs = np.tensordot(pk, pk.conj(), axes=(0, 0)).transpose(0, 2, 3, 5, 1, 4)
    post_rs = np.tensordot(qk, qk.conj(), axes=(0, 0)).transpose(2, 5, 0, 1, 3, 4)
    c8 = pre_rs.reshape(-1, r**2) @ post_rs.reshape(r**2, -1)
    rep_choi = c8.reshape(a, c, a, c, d, b, d, b).transpose(0, 5, 1, 4, 2, 7, 3, 6)
    return rep_choi.reshape(a * b * c * d, a * b * c * d)


def kraus_pair_stack(pre, post, r):
    """K_jk = sum_r (P_j^r)^T (x) Q_k^r, one np.kron per (j, k, r) (reference route)."""
    a, b = pre.dim_out // r, post.dim_in // r
    out = []
    for p in pre.kraus:
        for q in post.kraus:
            out.append(
                sum(
                    np.kron(p.reshape(a, r, -1)[:, s, :].T, q.reshape(-1, b, r)[:, :, s])
                    for s in range(r)
                )
            )
    return np.array(out)


def isometry_channel(dim_in, dim_out, rng):
    """Channel whose Kraus operators are the env blocks of a Haar isometry.

    env is the least that fits dim_in, or one more, drawn from rng.
    """
    env = -(-dim_in // dim_out) + int(rng.integers(0, 2))
    v = channels.haar_isometry(dim_out * env, dim_in, rng).reshape(dim_out, env, dim_in)
    return channels.channel_from_kraus([v[:, e, :] for e in range(env)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    r=st.integers(1, 3),
    dims=st.tuples(*[st.integers(2, 3)] * 4),
    seed=st.integers(0, 2**16),
)
def test_dilation_matches_einsum_reference(r, dims, seed):
    a, b, c, d = dims
    rng = np.random.default_rng(seed)
    pre = isometry_channel(c, a * r, rng)
    post = isometry_channel(b * r, d, rng)
    theta = sc.super_from_dilation(pre, post, ref_dim=r)
    want = einsum_rep_choi(pre, post, r)
    assert np.abs(theta.rep.choi - want).max() <= 1e-14
    ref = sc.super_from_rep(want, (a, b, c, d))
    assert [f.status for f in theta.flags] == [f.status for f in ref.flags]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    r=st.integers(1, 3),
    dims=st.tuples(*[st.integers(1, 3)] * 4),
    envs=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**16),
)
def test_kraus_pair_rep_matches_tensordot_reference(r, dims, envs, seed):
    a, b, c, d = dims
    pre = channels.random_channel(c, a * r, max(envs[0], -(-c // (a * r))), seed)
    post = channels.random_channel(b * r, d, max(envs[1], -(-(b * r) // d)), seed + 1)
    theta = sc.super_from_dilation(pre, post, ref_dim=r)
    assert np.abs(theta.rep.choi - tensordot_rep_choi(pre, post, r)).max() <= 1e-14
    # The rep keeps the Kraus stack it was built from, one per (pre, post) pair.
    assert theta.rep.kraus is theta.rep.given_kraus
    assert theta.rep.kraus.shape == (len(pre.kraus) * len(post.kraus), c * d, a * b)
    assert np.abs(theta.rep.kraus - kraus_pair_stack(pre, post, r)).max() <= 1e-15


@st.composite
def bounded_dims(draw, n, budget):
    """n dimensions, each at most 3, with product at most budget."""
    dims = []
    for _ in range(n):
        dims.append(draw(st.integers(1, min(3, budget))))
        budget //= dims[-1]
    return tuple(dims)


def random_supermap(seed, dims, cp):
    """A dilation superchannel, or a supermap with a random Hermitian representing map."""
    if cp:
        return random_dilation_super(seed, *dims)
    size = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return sc.super_from_rep((g + g.conj().T) / 2, dims)


def reorder_by_permutation_unitaries(big, in_dims, out_dims):
    """Swap the middle two factors of the input and output spaces of a map."""
    p_in = permutation_unitary(in_dims, (0, 2, 1, 3))
    p_out = permutation_unitary(out_dims, (0, 2, 1, 3))
    return channels.compose(
        channels.channel_from_kraus([p_out]),
        channels.compose(big, channels.channel_from_kraus([p_in])),
    ).choi


def certify_tp_by_basis_loop(rep, dims):
    """Worst residual of T*(e_kl (x) 1_D) = Z_kl (x) 1_B, tr Z_kl = delta_kl, one k, l at a time."""
    a, b, c, d = dims
    worst = 0.0
    for k in range(c):
        for ell in range(c):
            e = np.zeros((c, c), dtype=complex)
            e[k, ell] = 1.0
            w = channels.apply_adjoint(rep, np.kron(e, np.eye(d)))
            z = linalg.partial_trace(w, (a, b), "first") / b
            worst = max(worst, float(np.linalg.norm(w - np.kron(z, np.eye(b)))))
            worst = max(worst, abs(np.trace(z) - (1.0 if k == ell else 0.0)))
    return worst


def test_identity_superchannel():
    ident = channels.identity_channel(2)
    theta = sc.super_from_dilation(ident, ident, ref_dim=1)
    assert theta.flags.completely_cp_preserving.status == "yes"
    assert theta.flags.tp_preserving.status == "yes"
    np.testing.assert_allclose(theta.rep.choi, channels.identity_channel(4).choi, atol=1e-12)
    n = channels.random_channel(2, 2, 2, seed=0)
    np.testing.assert_allclose(sc.apply_super(theta, n).choi, n.choi, atol=1e-10)
    for ref_dim in (0, -1):
        with pytest.raises(ValueError, match="ref_dim must be >= 1"):
            sc.super_from_dilation(ident, ident, ref_dim=ref_dim)


def test_unitary_sandwich_superchannel():
    rng = np.random.default_rng(1)
    u = channels.haar_isometry(2, 2, rng)
    v = channels.haar_isometry(2, 2, rng)
    theta = sc.super_from_dilation(
        channels.channel_from_kraus([u]), channels.channel_from_kraus([v]), ref_dim=1
    )
    ident = channels.identity_channel(2)
    out = sc.apply_super(theta, ident)
    np.testing.assert_allclose(
        out.choi, channels.channel_from_kraus([v @ u]).choi, atol=1e-10
    )
    p = 0.2
    deph = channels.channel_from_kraus(
        [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * np.diag([1.0, -1.0])]
    )
    got = sc.apply_super(theta, deph)
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            expect += np.kron(eij, v @ channels.apply(deph, u @ eij @ u.conj().T) @ v.conj().T)
    np.testing.assert_allclose(got.choi, expect, atol=1e-10)


def test_depolarizing_post_gives_replacers():
    pre = channels.random_channel(2, 4, 2, seed=2)
    post = channels.depolarizing_r_tilde(4, 2)
    theta = sc.super_from_dilation(pre, post, ref_dim=2)
    n = channels.random_channel(2, 2, 2, seed=3)
    out = sc.apply_super(theta, n)
    np.testing.assert_allclose(out.choi, np.kron(np.eye(2), np.eye(2) / 2), atol=1e-10)


def test_apply_super_certified_output_and_dim_check():
    theta = random_dilation_super(seed=4)
    n = channels.random_channel(2, 2, 2, seed=6)
    assert channels.is_cptp(sc.apply_super(theta, n))
    with pytest.raises(ValueError):
        sc.apply_super(theta, channels.random_channel(3, 2, 2, seed=7))


def test_dilation_and_choi_paths_agree():
    theta = random_dilation_super(seed=8)
    for seed in range(20):
        n = channels.random_channel(2, 2, 2, seed=100 + seed)
        via_rep = sc.apply_super(theta, n)
        via_dil = apply_super_dilation(theta, n)
        assert np.linalg.norm(via_rep.choi - via_dil.choi) <= 1e-8


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    dims=bounded_dims(4, 16),
    ref_dim=st.integers(1, 2),
    env=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_apply_super_matches_dilation_property(dims, ref_dim, env, seed):
    a, b, c, d = dims
    pre = channels.random_channel(c, a * ref_dim, -(-c // (a * ref_dim)) + 1, seed)
    post = channels.random_channel(b * ref_dim, d, -(-(b * ref_dim) // d) + 1, seed + 1)
    theta = sc.super_from_dilation(pre, post, ref_dim=ref_dim)
    n = channels.random_channel(a, b, max(env, -(-a // b)), seed + 2)
    np.testing.assert_allclose(
        sc.apply_super(theta, n).choi, apply_super_dilation(theta, n).choi, rtol=0, atol=1e-12
    )


def test_representing_adjoint_duality():
    theta = random_dilation_super(seed=9)
    ident = sc.super_from_dilation(
        channels.identity_channel(2), channels.identity_channel(2)
    )
    np.testing.assert_allclose(
        channels.adjoint(ident.rep).choi, channels.identity_channel(4).choi, atol=1e-12
    )
    rng = np.random.default_rng(10)
    adj = channels.adjoint(theta.rep)
    for _ in range(5):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = np.trace(channels.apply(adj, y).conj().T @ x)
        rhs = np.trace(y.conj().T @ channels.apply(theta.rep, x))
        assert abs(lhs - rhs) < 1e-9


def test_adjoint_of_unitary_sandwich_preserves_depolarizing():
    rng = np.random.default_rng(11)
    u = channels.haar_isometry(2, 2, rng)
    v = channels.haar_isometry(2, 2, rng)
    theta = sc.super_from_dilation(
        channels.channel_from_kraus([u]), channels.channel_from_kraus([v])
    )
    w = channels.apply_adjoint(theta.rep, np.eye(4))
    np.testing.assert_allclose(w, np.eye(4), atol=1e-10)
    assert theta.rep.flags.tp.status == "yes"


def test_rep_tp_matches_depolarizing_preservation():
    rng = np.random.default_rng(12)
    mix = sc.random_isometry_super(
        [0.5, 0.5],
        [channels.haar_isometry(2, 2, rng) for _ in range(2)],
        [channels.haar_isometry(2, 2, rng) for _ in range(2)],
    )
    res = np.linalg.norm(channels.apply_adjoint(mix.rep, np.eye(4)) - np.eye(4))
    assert mix.rep.flags.tp.status == "yes" and res <= 1e-8
    generic = random_dilation_super(seed=13)
    res2 = np.linalg.norm(channels.apply_adjoint(generic.rep, np.eye(4)) - np.eye(4))
    assert generic.rep.flags.tp.status == "no" and res2 > 1e-8


def test_complete_cp_preservation_flag_both_directions():
    theta = random_dilation_super(seed=14)
    assert theta.flags.completely_cp_preserving.status == "yes"
    big = sc.extend_super_with_identity(theta, 2)
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        cp_choi = g @ g.conj().T
        out = channels.apply(big.rep, cp_choi)
        assert linalg.psd_check(linalg.herm_eigvals(out)).is_psd

    rng2 = np.random.default_rng(16)
    vec = rng2.normal(size=16) + 1j * rng2.normal(size=16)
    vec /= np.linalg.norm(vec)
    bad_rep = 0.5 * np.eye(16) - np.outer(vec, vec.conj())
    bad = sc.super_from_rep(bad_rep, (2, 2, 2, 2))
    assert bad.flags.completely_cp_preserving.status == "no"
    bad_big = sc.extend_super_with_identity(bad, 2)
    omega = np.zeros(16, dtype=complex)
    for k in range(4):
        omega[k * 4 + k] = 1.0
    p_in = permutation_unitary((2, 2, 2, 2), (0, 2, 1, 3))
    witness = p_in.conj().T @ np.outer(omega, omega.conj()) @ p_in
    out = channels.apply(bad_big.rep, witness)
    assert linalg.psd_check(linalg.herm_eigvals(out)).min_eig < -1e-6


def test_tp_fix_trace_nonincreasing_and_image_preservation():
    rng = np.random.default_rng(17)
    mix = sc.random_isometry_super(
        [0.4, 0.6],
        [channels.haar_isometry(2, 2, rng) for _ in range(2)],
        [channels.haar_isometry(2, 2, rng) for _ in range(2)],
    )
    assert channels.is_cptp(mix.rep)
    fix = sc.tp_fix_map(mix.rep)
    assert fix.flags.cp.status == "yes"
    # mix.rep is trace preserving up to rounding, so sigma0 cannot be read back
    # from T'; the default completion is the one with sigma0 = 1/4, bit for bit.
    np.testing.assert_array_equal(fix.choi, sc.tp_fix_map(mix.rep, np.eye(4) / 4).choi)
    # Image preservation needs only tp-preservation of theta, not a CPTP fix.
    theta = random_dilation_super(seed=18)
    fixed2 = sc.tp_fix_map(theta.rep)
    for seed in range(3):
        n = channels.random_channel(2, 2, 2, seed=500 + seed)
        np.testing.assert_allclose(
            channels.apply(fixed2, n.choi), channels.apply(theta.rep, n.choi), atol=1e-10
        )


def test_tp_fix_scaled_depolarizing_sigma0_growth():
    big_l, n_dim = 100, 4
    alpha = 1 / n_dim + 1 / (n_dim * n_dim * big_l)
    base = channels.channel_from_choi(alpha * np.eye(16), 4, 4)
    fixed = sc.tp_fix_map(base)
    assert fixed.flags.cp.status == "yes"
    bound = big_l + 1 / n_dim
    assert np.max(np.linalg.eigvalsh(completion_sigma0(base, fixed))) < bound
    assert fixed.flags.tp.status == "yes"


def test_tp_fix_diagonal_amplifier_explicit_sigma0():
    base = channels.channel_from_kraus(
        [np.sqrt(2.0) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) / np.sqrt(2.0)]
    )
    sigma0 = np.diag([1.99, -0.2]) / 1.79
    fixed = sc.tp_fix_map(base, sigma0)
    assert fixed.flags.cp.status == "yes" and fixed.flags.cp.certificate >= -1e-10
    assert fixed.flags.tp.certificate <= 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(fixed.choi)),
        [0.11173, 0.44413, 0.55587, 0.88827],
        atol=1e-4,
    )


@pytest.fixture
def completions(monkeypatch):
    """(base, T') of every tp_fix_map call that bounds and cli make while the test runs."""
    calls = []

    def recording(base, sigma0=None):
        fixed = sc.tp_fix_map(base, sigma0)
        calls.append((base, fixed))
        return fixed

    monkeypatch.setattr(bounds, "tp_fix_map", recording)
    monkeypatch.setattr(cli, "tp_fix_map", recording)
    return calls


def test_tp_fix_returns_a_base_within_rounding(completions):
    # Every refined-dpi rep is trace preserving; its correction is rounding
    # (up to 1.5 eps at these seeds), so no trial builds a second T.
    cfg = cli.RunConfig()
    for seed in range(64):
        for trial in range(5):
            cli._suite_refined_dpi(trial, seed, cfg)
    assert len(completions) == 320
    assert all(fixed is base for base, fixed in completions)
    # A correction of 1e-12 is not rounding, and tp-completion's is O(1).
    completions.clear()
    near = channels.channel_from_kraus([np.sqrt(1 - 1e-12) * np.eye(2)])
    fixed = sc.tp_fix_map(near)
    assert fixed is not near and fixed.flags.tp.certificate < 1e-15
    cli._suite_tp_completion(0, 0, cfg)
    ((base, fixed),) = completions
    assert fixed is not base and fixed.flags.tp.status == "yes"


def test_tp_fix_sigma0_with_wrong_trace():
    base = channels.identity_channel(2)
    with pytest.raises(ValueError):
        sc.tp_fix_map(base, np.eye(2))


def test_tp_fix_sigma0_with_wrong_shape():
    base = channels.identity_channel(2)
    with pytest.raises(ValueError, match=r"sigma0 must have shape \(2, 2\)"):
        sc.tp_fix_map(base, np.eye(3) / 3)


def test_tp_fix_sigma0_not_hermitian():
    base = channels.identity_channel(2)
    with pytest.raises(ValueError, match="sigma0: matrix is not Hermitian"):
        sc.tp_fix_map(base, np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_tp_fix_adjoint_formula_and_unitality():
    base = channels.channel_from_kraus(
        [np.sqrt(2.0) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) / np.sqrt(2.0)]
    )
    sigma0 = np.diag([1.99, -0.2]) / 1.79
    adj = channels.adjoint(sc.tp_fix_map(base, sigma0))
    np.testing.assert_allclose(
        channels.apply(adj, np.eye(2)), np.eye(2), atol=1e-10
    )
    rng = np.random.default_rng(19)
    g_term = np.eye(2) - channels.apply_adjoint(base, np.eye(2))
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = (g + g.conj().T) / 2
        expect = channels.apply_adjoint(base, y) + np.trace(y.conj().T @ sigma0) * g_term
        np.testing.assert_allclose(channels.apply(adj, y), expect, atol=1e-9)
    cptp = channels.random_channel(2, 2, 2, seed=20)
    adj2 = channels.adjoint(sc.tp_fix_map(cptp, np.eye(2) / 2))
    np.testing.assert_allclose(adj2.choi, channels.adjoint(cptp).choi, atol=1e-10)


def test_sct_membership_verdicts():
    rng = np.random.default_rng(21)
    mix = sc.random_isometry_super(
        [1.0], [channels.haar_isometry(2, 2, rng)], [channels.haar_isometry(2, 2, rng)]
    )
    assert sc.tp_fix_map(mix.rep).flags.cp.status == "yes"
    generic = random_dilation_super(seed=22)
    flags2 = sc.tp_fix_map(generic.rep).flags
    assert (flags2.cp.status == "yes") == (flags2.cp.certificate >= -linalg.PSD_TOL)
    assert flags2.tp.status == "yes"


def test_r_subpreserving_reports():
    rng = np.random.default_rng(22)
    us = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
    vs = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
    mix = sc.random_isometry_super([0.5, 0.5], us, vs)
    rep = sc.is_r_subpreserving(mix)
    assert rep.verdict and rep.is_r_preserving
    ws = [channels.haar_isometry(3, 2, rng) for _ in range(2)]
    iso = sc.random_isometry_super([0.3, 0.7], us, ws)
    rep2 = sc.is_r_subpreserving(iso)
    assert rep2.verdict and not rep2.is_r_preserving
    pre = channels.random_channel(2, 2, 2, seed=23)
    v_iso = channels.channel_from_kraus([channels.haar_isometry(3, 2, rng)])
    theta = sc.super_from_dilation(pre, v_iso, ref_dim=1)
    assert sc.is_r_subpreserving(theta).verdict


def test_random_isometry_super_validation():
    rng = np.random.default_rng(24)
    u = channels.haar_isometry(2, 2, rng)
    with pytest.raises(ValueError):
        sc.random_isometry_super([0.6, 0.6], [u, u], [u, u])
    with pytest.raises(ValueError):
        sc.random_isometry_super([1.0], [2.0 * u], [u])
    single = sc.random_isometry_super([1.0], [u], [u])
    direct = sc.super_from_dilation(
        channels.channel_from_kraus([u]), channels.channel_from_kraus([u])
    )
    np.testing.assert_allclose(single.rep.choi, direct.rep.choi, atol=1e-10)


def test_random_isometry_super_builds_probs_within_probs_tol():
    # The sum is 1 + 9e-11, inside PROBS_TOL; unnormalized, pre's TP residual
    # read 1.27e-10, beyond TP_TOL, and the build raised.
    eye = np.eye(2)
    theta = sc.random_isometry_super([0.5, 0.5 + 9e-11], [eye, eye], [eye, eye])
    pre, post, _ = theta.dilation
    assert channels.is_cptp(pre) and channels.is_cptp(post)
    assert pre.flags.tp.certificate < 1e-15
    assert theta.flags.tp_preserving.status == "yes"


def test_random_isometry_super_checks_every_isometry_and_count():
    rng = np.random.default_rng(25)
    good = np.stack([channels.haar_isometry(2, 2, rng) for _ in range(2)])
    # Only the last isometry of the bad stack is off, so every one is checked.
    bad = good * np.array([1.0, 2.0])[:, None, None]
    for pre, post in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="not an isometry"):
            sc.random_isometry_super([0.5, 0.5], pre, post)
    for pre, post in ((good[:1], good), (good, good[:1]), (good[:1], good[:1])):
        with pytest.raises(ValueError, match="one pre and one post"):
            sc.random_isometry_super([0.5, 0.5], pre, post)


def test_generalized_rep_maximally_entangled_scaling():
    theta = random_dilation_super(seed=25)
    t_frak = sc.generalized_rep(theta, dv.maximally_entangled(2), dv.maximally_entangled(2))
    np.testing.assert_allclose(t_frak.choi, theta.rep.choi, atol=1e-10)
    ident = sc.super_from_dilation(
        channels.identity_channel(2), channels.identity_channel(2)
    )
    t_id = sc.generalized_rep(ident, dv.maximally_entangled(2), dv.maximally_entangled(2))
    assert abs(sc.alpha_norm(t_id) - 1.0) < 1e-10


def test_generalized_rep_maps_choi_witnesses():
    rng = np.random.default_rng(26)
    pre = channels.random_channel(3, 4, 2, seed=27)
    post = channels.random_channel(4, 2, 3, seed=28)
    theta = sc.super_from_dilation(pre, post, ref_dim=2)
    assert theta.dims == (2, 2, 3, 2)
    psi = rand_full_rank_witness(rng, 2)
    phi = rand_full_rank_witness(rng, 3)
    t_frak = sc.generalized_rep(theta, psi, phi)
    for seed in range(5):
        n = channels.random_channel(2, 2, 2, seed=200 + seed)
        lhs = channels.apply(t_frak, dv.choi_witness(n, psi))
        rhs = dv.choi_witness(sc.apply_super(theta, n), phi)
        assert abs(np.trace(lhs) - 1.0) < 1e-10
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_generalized_rep_identity_super_composition():
    rng = np.random.default_rng(29)
    ident = sc.super_from_dilation(
        channels.identity_channel(2), channels.identity_channel(2)
    )
    psi = rand_full_rank_witness(rng, 2)
    phi = rand_full_rank_witness(rng, 2)
    t_frak = sc.generalized_rep(ident, psi, phi)
    for seed in range(3):
        n = channels.random_channel(2, 2, 2, seed=300 + seed)
        lhs = channels.apply(t_frak, dv.choi_witness(n, psi))
        rhs = dv.choi_witness(n, phi)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_generalized_rep_rejects_rank_deficient():
    theta = random_dilation_super(seed=30)
    bad = dv.pure_bipartite(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        sc.generalized_rep(theta, bad, dv.maximally_entangled(2))


def test_t_frak_prime_agrees_on_normalized_choi_states():
    rng = np.random.default_rng(31)
    pre = channels.random_channel(3, 4, 2, seed=32)
    post = channels.random_channel(4, 2, 3, seed=33)
    theta = sc.super_from_dilation(pre, post, ref_dim=2)
    psi = rand_full_rank_witness(rng, 2)
    phi = rand_full_rank_witness(rng, 3)
    t_frak = sc.generalized_rep(theta, psi, phi)
    fixed = sc.tp_fix_map(t_frak)
    for seed in range(5):
        n = channels.random_channel(2, 2, 2, seed=400 + seed)
        state = dv.choi_witness(n, psi)
        np.testing.assert_allclose(
            channels.apply(fixed, state), channels.apply(t_frak, state), atol=1e-8
        )


# Slot pairs are capped at 4 so that the extended spaces stay at most 16-dimensional.
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    ab=bounded_dims(2, 4),
    cd=bounded_dims(2, 4),
    dim_e=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
@example(ab=(2, 2), cd=(2, 2), dim_e=2, seed=34)
def test_extend_with_identity_routes_agree(ab, cd, dim_e, seed):
    dims = ab + cd
    a, b, c, d = dims
    theta = random_dilation_super(seed, *dims)
    # The dilation route: id_E on both sides of the pre and post channels.
    pre, post, ref_dim = theta.dilation
    via_dilation = sc.super_from_dilation(
        channels.channel_from_kraus([np.kron(np.eye(dim_e), k) for k in pre.kraus]),
        channels.channel_from_kraus([np.kron(np.eye(dim_e), k) for k in post.kraus]),
        ref_dim=ref_dim,
    )
    via_rep = sc.extend_super_with_identity(theta, dim_e)
    assert via_rep.dims == via_dilation.dims == tuple(dim_e * x for x in dims)
    np.testing.assert_allclose(via_dilation.rep.choi, via_rep.rep.choi, atol=1e-8)
    assert via_rep.flags.tp_preserving.status == "yes"
    big = channels.tensor_channels(channels.identity_channel(dim_e * dim_e), theta.rep)
    reference = reorder_by_permutation_unitaries(
        big, (dim_e, a, dim_e, b), (dim_e, dim_e, c, d)
    )
    np.testing.assert_allclose(via_rep.rep.choi, reference, rtol=0, atol=1e-12)


# The joint input and output spaces are capped at 16 dimensions each.
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    ins=bounded_dims(4, 16),
    outs=bounded_dims(4, 16),
    cp=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_tensor_supermaps_matches_permutation_route(ins, outs, cp, seed):
    dims1 = ins[:2] + outs[:2]
    dims2 = ins[2:] + outs[2:]
    t1 = random_supermap(seed, dims1, cp)
    t2 = random_supermap(seed + 1, dims2, True)
    joint = sc.tensor_supermaps(t1, t2)
    assert joint.dims == tuple(x * y for x, y in zip(dims1, dims2))
    (a1, b1, c1, d1), (a2, b2, c2, d2) = dims1, dims2
    reference = reorder_by_permutation_unitaries(
        channels.tensor_channels(t1.rep, t2.rep), (a1, a2, b1, b2), (c1, d1, c2, d2)
    )
    np.testing.assert_allclose(joint.rep.choi, reference, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dims=bounded_dims(4, 36), cp=st.booleans(), seed=st.integers(0, 2**16))
def test_certify_tp_preserving_matches_basis_loop(dims, cp, seed):
    theta = random_supermap(seed, dims, cp)
    flag = sc.certify_tp_preserving(theta.rep, dims)
    reference = certify_tp_by_basis_loop(theta.rep, dims)
    assert abs(flag.certificate - reference) <= 1e-12
    assert flag.status == ("yes" if cp else "no")


def test_super_json_round_trip():
    theta = random_dilation_super(seed=35)
    enc = json.loads(json.dumps(sc.super_to_json(theta)))
    back = sc.super_from_json(enc)
    np.testing.assert_allclose(back.rep.choi, theta.rep.choi, atol=1e-10)
    rep_only = sc.super_from_rep(theta.rep.choi, theta.dims)
    enc2 = json.loads(json.dumps(sc.super_to_json(rep_only)))
    back2 = sc.super_from_json(enc2)
    np.testing.assert_allclose(back2.rep.choi, theta.rep.choi, atol=1e-10)
    with pytest.raises(ValueError):
        sc.super_from_json({"dims": [2, 2, 2, 2]})
