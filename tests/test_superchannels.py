import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superchan import channels, divergences as dv, linalg, superchannels as sc


def rand_full_rank_witness(rng, d):
    while True:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        psi = dv.pure_bipartite(g)
        if psi.full_rank:
            return psi


def random_dilation_super(seed, a=2, b=2, c=2, d=2, r=2):
    pre = channels.random_channel(c, a * r, 2, seed=seed)
    post = channels.random_channel(b * r, d, max(2, (b * r) // d + 1), seed=seed + 1)
    return sc.super_from_dilation(pre, post, ref_dim=r)


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
    p_in = linalg.permutation_unitary(in_dims, (0, 2, 1, 3))
    p_out = linalg.permutation_unitary(out_dims, (0, 2, 1, 3))
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
        via_dil = sc.apply_super_dilation(theta, n)
        assert np.linalg.norm(via_rep.choi - via_dil.choi) <= 1e-8


def test_representing_adjoint_duality():
    theta = random_dilation_super(seed=9)
    ident = sc.super_from_dilation(
        channels.identity_channel(2), channels.identity_channel(2)
    )
    np.testing.assert_allclose(
        sc.representing_adjoint(ident).choi, channels.identity_channel(4).choi, atol=1e-12
    )
    rng = np.random.default_rng(10)
    adj = sc.representing_adjoint(theta)
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
        assert linalg.psd_check(out).is_psd

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
    p_in = linalg.permutation_unitary((2, 2, 2, 2), (0, 2, 1, 3))
    witness = p_in.conj().T @ np.outer(omega, omega.conj()) @ p_in
    out = channels.apply(bad_big.rep, witness)
    assert linalg.psd_check(out).min_eig < -1e-6


def test_tp_fix_trace_nonincreasing_and_image_preservation():
    rng = np.random.default_rng(17)
    mix = sc.random_isometry_super(
        [0.4, 0.6],
        [channels.haar_isometry(2, 2, rng) for _ in range(2)],
        [channels.haar_isometry(2, 2, rng) for _ in range(2)],
    )
    assert channels.is_cptp(mix.rep)
    fix = sc.tp_fix(mix)
    assert fix.is_cptp
    np.testing.assert_allclose(fix.sigma0, np.eye(4) / 4, atol=1e-12)
    # Image preservation needs only tp-preservation of theta, not a CPTP fix.
    theta = random_dilation_super(seed=18)
    fix2 = sc.tp_fix(theta)
    fixed2 = sc.tp_fixed_channel(fix2.base, fix2.sigma0)
    for seed in range(3):
        n = channels.random_channel(2, 2, 2, seed=500 + seed)
        np.testing.assert_allclose(
            channels.apply(fixed2, n.choi), channels.apply(theta.rep, n.choi), atol=1e-10
        )


def test_tp_fix_scaled_depolarizing_sigma0_growth():
    big_l, n_dim = 100, 4
    alpha = 1 / n_dim + 1 / (n_dim * n_dim * big_l)
    base = channels.channel_from_choi(alpha * np.eye(16), 4, 4)
    fix = sc.tp_fix_map(base)
    assert fix.is_cptp
    bound = big_l + 1 / n_dim
    assert np.max(np.linalg.eigvalsh(fix.sigma0)) < bound
    fixed = sc.tp_fixed_channel(fix.base, fix.sigma0)
    assert fixed.flags.tp.status == "yes"


def test_tp_fix_diagonal_amplifier_explicit_sigma0():
    base = channels.channel_from_kraus(
        [np.sqrt(2.0) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) / np.sqrt(2.0)]
    )
    sigma0 = np.diag([1.99, -0.2]) / 1.79
    fix = sc.tp_fix_map(base, sigma0)
    assert fix.is_cptp and fix.choi_min_eig >= -1e-10
    fixed = sc.tp_fixed_channel(base, sigma0)
    assert fixed.flags.tp.certificate <= 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(fixed.choi)),
        [0.11173, 0.44413, 0.55587, 0.88827],
        atol=1e-4,
    )
    searched = sc.tp_fix_map(base)
    assert searched.is_cptp


def test_tp_fix_sigma0_with_wrong_trace():
    base = channels.identity_channel(2)
    with pytest.raises(ValueError):
        sc.tp_fix_map(base, np.eye(2))


def test_tp_fix_adjoint_formula_and_unitality():
    base = channels.channel_from_kraus(
        [np.sqrt(2.0) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) / np.sqrt(2.0)]
    )
    sigma0 = np.diag([1.99, -0.2]) / 1.79
    fix = sc.tp_fix_map(base, sigma0)
    adj = sc.tp_fix_adjoint(fix)
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
    fix2 = sc.tp_fix_map(cptp, np.eye(2) / 2)
    adj2 = sc.tp_fix_adjoint(fix2)
    np.testing.assert_allclose(adj2.choi, channels.adjoint(cptp).choi, atol=1e-10)


def test_sct_membership_verdicts():
    rng = np.random.default_rng(21)
    mix = sc.random_isometry_super(
        [1.0], [channels.haar_isometry(2, 2, rng)], [channels.haar_isometry(2, 2, rng)]
    )
    verdict = sc.sct_membership(mix)
    assert verdict.status == "member" and verdict.fix.is_cptp
    generic = random_dilation_super(seed=22)
    v2 = sc.sct_membership(generic)
    assert v2.status in ("member", "undecided")
    assert (v2.status == "member") == v2.fix.is_cptp


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


def test_generalized_rep_maximally_entangled_scaling():
    theta = random_dilation_super(seed=25)
    g = sc.generalized_rep(theta, dv.maximally_entangled(2), dv.maximally_entangled(2))
    np.testing.assert_allclose(g.t_frak.choi, theta.rep.choi, atol=1e-10)
    ident = sc.super_from_dilation(
        channels.identity_channel(2), channels.identity_channel(2)
    )
    gid = sc.generalized_rep(ident, dv.maximally_entangled(2), dv.maximally_entangled(2))
    assert abs(sc.alpha_norm(gid) - 1.0) < 1e-10


def test_generalized_rep_maps_choi_witnesses():
    rng = np.random.default_rng(26)
    pre = channels.random_channel(3, 4, 2, seed=27)
    post = channels.random_channel(4, 2, 3, seed=28)
    theta = sc.super_from_dilation(pre, post, ref_dim=2)
    assert theta.dims == (2, 2, 3, 2)
    psi = rand_full_rank_witness(rng, 2)
    phi = rand_full_rank_witness(rng, 3)
    g = sc.generalized_rep(theta, psi, phi)
    for seed in range(5):
        n = channels.random_channel(2, 2, 2, seed=200 + seed)
        lhs = channels.apply(g.t_frak, sc.choi_witness(n, psi))
        rhs = sc.choi_witness(sc.apply_super(theta, n), phi)
        assert abs(np.trace(lhs) - 1.0) < 1e-10
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_generalized_rep_identity_super_composition():
    rng = np.random.default_rng(29)
    ident = sc.super_from_dilation(
        channels.identity_channel(2), channels.identity_channel(2)
    )
    psi = rand_full_rank_witness(rng, 2)
    phi = rand_full_rank_witness(rng, 2)
    g = sc.generalized_rep(ident, psi, phi)
    for seed in range(3):
        n = channels.random_channel(2, 2, 2, seed=300 + seed)
        lhs = channels.apply(g.t_frak, sc.choi_witness(n, psi))
        rhs = sc.choi_witness(n, phi)
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
    g = sc.generalized_rep(theta, psi, phi)
    fix = sc.tp_fix_map(g.t_frak)
    fixed = sc.tp_fixed_channel(fix.base, fix.sigma0)
    for seed in range(5):
        n = channels.random_channel(2, 2, 2, seed=400 + seed)
        state = sc.choi_witness(n, psi)
        np.testing.assert_allclose(
            channels.apply(fixed, state), channels.apply(g.t_frak, state), atol=1e-8
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
    via_dilation = sc.extend_super_with_identity(theta, dim_e)
    rep_only = sc.super_from_rep(theta.rep.choi, theta.dims)
    via_rep = sc.extend_super_with_identity(rep_only, dim_e)
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
