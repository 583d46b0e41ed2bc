import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan import channels, divergences as dv, linalg, recovery as rc, superchannels as sc


def rand_state(rng, d, rank=None):
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def unitary_mixture_super(seed, d=2):
    rng = np.random.default_rng(seed)
    us = [channels.haar_isometry(d, d, rng) for _ in range(2)]
    vs = [channels.haar_isometry(d, d, rng) for _ in range(2)]
    return sc.random_isometry_super([0.6, 0.4], us, vs)


def telecov_anchor(seed, d=2):
    spec = channels.weyl_heisenberg_spec(d)
    return channels.telecov_channel(spec, channels.random_channel(d, d, d, seed=seed))


def test_petz_inverts_unitary_channel():
    rng = np.random.default_rng(0)
    u = channels.haar_isometry(2, 2, rng)
    r = rc.petz(rand_state(rng, 2), channels.channel_from_kraus([u]))
    np.testing.assert_allclose(
        r.rec.choi, channels.channel_from_kraus([u.conj().T]).choi, atol=1e-10
    )


def test_petz_replacer_fixed_point():
    rt = channels.depolarizing_r_tilde(2, 2)
    r = rc.petz(np.eye(2) / 2, rt)
    np.testing.assert_allclose(r.rec.choi, rt.choi, atol=1e-12)


def test_petz_recovers_sigma():
    rng = np.random.default_rng(1)
    for seed in range(6):
        n = channels.random_channel(2, 2, 2, seed=seed)
        for rank in (2, 1):
            sig = rand_state(rng, 2, rank=rank)
            r = rc.petz(sig, n)
            out = channels.apply(r.rec, channels.apply(n, sig))
            assert linalg.trace_norm(out - sig) <= 1e-9


def test_petz_cp_and_trace_nonincreasing():
    rng = np.random.default_rng(2)
    for _ in range(200):
        din, dout = rng.integers(2, 4, size=2)
        n = channels.random_channel(int(din), int(dout), 2, seed=int(rng.integers(1 << 30)))
        r = rc.petz(rand_state(rng, int(din)), n)
        assert r.rec.flags.cp.certificate >= -1e-9
        back = channels.apply_adjoint(r.rec, np.eye(int(din)))
        w, _ = linalg.herm_eig(back)
        assert w[-1] <= 1 + 1e-9


def test_rotated_matches_petz_at_zero():
    rng = np.random.default_rng(3)
    n = channels.random_channel(2, 3, 2, seed=9)
    sig = rand_state(rng, 2)
    np.testing.assert_allclose(
        rc.rotated_petz(sig, n, 0.0).rec.choi, rc.petz(sig, n).rec.choi, atol=1e-12
    )


def test_rotated_recovers_sigma():
    rng = np.random.default_rng(4)
    n = channels.random_channel(2, 2, 2, seed=11)
    sig = rand_state(rng, 2)
    for t in (-1.3, 0.7, 2.5):
        r = rc.rotated_petz(sig, n, t)
        out = channels.apply(r.rec, channels.apply(n, sig))
        assert linalg.trace_norm(out - sig) <= 1e-9


def test_rotated_cp_at_t_one():
    rng = np.random.default_rng(5)
    r = rc.rotated_petz(rand_state(rng, 2), channels.random_channel(2, 2, 2, seed=13), 1.0)
    assert r.rec.flags.cp.status == "yes"


def test_universal_recovers_sigma():
    rng = np.random.default_rng(6)
    n = channels.random_channel(2, 2, 2, seed=17)
    for rank in (2, 1):
        sig = rand_state(rng, 2, rank=rank)
        r = rc.universal_recovery(sig, n)
        out = channels.apply(r.rec, channels.apply(n, sig))
        assert linalg.trace_norm(out - sig) <= 1e-6


def test_universal_trace_preserving():
    rng = np.random.default_rng(7)
    for din, dout in ((2, 2), (2, 3), (3, 2)):
        n = channels.random_channel(din, dout, 3, seed=din * 7 + dout)
        r = rc.universal_recovery(rand_state(rng, din), n)
        assert r.rec.flags.tp.certificate <= 1e-6
        assert r.rec.flags.cp.status == "yes"
    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    r = rc.universal_recovery(pure, channels.identity_channel(2))
    assert r.rec.flags.tp.certificate <= 1e-6


def simpson_universal(sig, n):
    """The universal recovery's Choi by Simpson's rule over rotated Petz maps.

    Sums rotated_petz(sig, n, t / 2) against the density
    (pi/2) / (cosh(pi t) + 1) at 801 nodes on [-20, 20], then adds the
    completion (1 - Pi).T (x) 1/d off the support of n(sig).
    """
    ts = np.linspace(-20.0, 20.0, 801)
    simpson = np.ones(len(ts))
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    ws = (ts[1] - ts[0]) / 3.0 * simpson * 0.5 * np.pi / (np.cosh(np.pi * ts) + 1.0)
    choi = sum(w * rc.rotated_petz(sig, n, t / 2).rec.choi for t, w in zip(ts, ws))
    nsig = channels.apply(n, sig)
    comp = np.eye(n.dim_out) - linalg.support_projector((nsig + nsig.conj().T) / 2)
    return choi + np.kron(comp.T, np.eye(n.dim_in) / n.dim_in)


def test_universal_matches_rotated_average():
    rng = np.random.default_rng(8)
    # (d, rank of sigma, dim_out, env); the last case has a rank-one n(sigma).
    cases = ((2, 2, 2, 2), (2, 1, 2, 2), (3, 3, 2, 3), (3, 2, 3, 2), (2, 1, 2, 1))
    for d, rank, dim_out, env in cases:
        n = channels.random_channel(d, dim_out, env, seed=19 + d * rank)
        sig = rand_state(rng, d, rank=rank)
        r = rc.universal_recovery(sig, n)
        np.testing.assert_allclose(r.rec.choi, simpson_universal(sig, n), rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 3),
    dim_out=st.integers(2, 3),
    env=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_universal_closed_form_is_cptp_and_recovers_sigma(d, dim_out, env, seed):
    rng = np.random.default_rng(seed)
    n = channels.random_channel(d, dim_out, max(env, -(-d // dim_out)), seed=seed)
    sig = rand_state(rng, d)
    rec = rc.universal_recovery(sig, n).rec
    assert channels.is_cptp(rec)
    out = channels.apply(rec, channels.apply(n, sig))
    assert linalg.trace_norm(out - sig) <= 1e-9


def test_universal_refined_dpi():
    rng = np.random.default_rng(10)
    for seed in range(5):
        n = channels.random_channel(2, 2, 2, seed=seed + 31)
        rho, sig = rand_state(rng, 2), rand_state(rng, 2)
        r = rc.universal_recovery(sig, n)
        drop = dv.rel_entropy(rho, sig) - dv.rel_entropy(
            channels.apply(n, rho), channels.apply(n, sig)
        )
        f = linalg.fidelity(rho, channels.apply(r.rec, channels.apply(n, rho)))
        assert drop + np.log2(f) >= -1e-3


def test_tilde_identity_map():
    r = rc.tilde_recovery(channels.identity_channel(4))
    np.testing.assert_allclose(r.rec.choi, channels.identity_channel(4).choi, atol=1e-12)


def test_tilde_unital_input_drops_correction():
    rng = np.random.default_rng(11)
    us = [channels.haar_isometry(3, 3, rng) for _ in range(3)]
    mix = channels.channel_from_kraus([np.sqrt(p) * u for p, u in zip((0.5, 0.3, 0.2), us)])
    r = rc.tilde_recovery(mix)
    np.testing.assert_allclose(r.rec.choi, channels.adjoint(mix).choi, atol=1e-12)


def test_tilde_trace_preserving_subunital():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = g / (1.2 * np.linalg.norm(g, ord=2))
    contraction = channels.channel_from_kraus([a])
    r = rc.tilde_recovery(contraction, xi=rand_state(rng, 3))
    assert r.rec.flags.tp.certificate <= 1e-10
    assert r.rec.flags.cp.status == "yes"
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = channels.apply(r.rec, x)
    assert abs(np.trace(out) - np.trace(x)) <= 1e-10


def test_recovery_supermap_identity_superchannel():
    theta = sc.random_isometry_super([1.0], [np.eye(2)], [np.eye(2)])
    mes = dv.maximally_entangled(2)
    anchor = channels.random_channel(2, 2, 4, seed=41)
    rsm = rc.recovery_supermap(theta, anchor, mes, mes)
    assert rsm.anchor_residual <= 1e-6
    other = channels.random_channel(2, 2, 2, seed=43)
    out = rc.recover_channel(rsm, other)
    assert linalg.trace_norm(out.choi - other.choi) <= 1e-6


def test_recovery_supermap_telecov_anchor():
    theta = unitary_mixture_super(20)
    anchor = telecov_anchor(21)
    mes = dv.maximally_entangled(2)
    rsm = rc.recovery_supermap(theta, anchor, mes, mes)
    assert rsm.anchor_residual <= 1e-6
    recovered = rc.recover_channel(rsm, sc.apply_super(theta, anchor))
    assert linalg.trace_norm(recovered.choi - anchor.choi) <= 1e-6
    assert rsm.inner_recovery.rec.flags.cp.status == "yes"
    assert rsm.inner_recovery.rec.flags.tp.certificate <= 1e-6


def test_recovery_supermap_50_random_anchors():
    theta = unitary_mixture_super(22)
    mes = dv.maximally_entangled(2)
    worst = 0.0
    for seed in range(50):
        rsm = rc.recovery_supermap(theta, telecov_anchor(seed), mes, mes)
        worst = max(worst, rsm.anchor_residual)
    assert worst <= 1e-6


def test_recovery_supermap_errors():
    theta = unitary_mixture_super(23)
    mes = dv.maximally_entangled(2)
    with pytest.raises(ValueError):
        rc.recovery_supermap(theta, channels.random_channel(3, 2, 2, seed=1), mes, mes)
    shrink = channels.channel_from_kraus([0.5 * np.eye(2)])
    with pytest.raises(ValueError):
        rc.recovery_supermap(theta, shrink, mes, mes)
    lopsided = dv.pure_bipartite(np.diag([1.0, 1e-9]))
    with pytest.raises(ValueError):
        rc.recovery_supermap(theta, channels.random_channel(2, 2, 2, seed=2), lopsided, mes)
    k = np.array([[0.0, np.sqrt(2.0)], [0.0, 0.0]])
    stuck = sc.super_from_rep(channels.channel_from_kraus([k]).choi, (1, 2, 1, 2))
    mes1 = dv.maximally_entangled(1)
    with pytest.raises(ValueError):
        rc.recovery_supermap(stuck, channels.random_channel(1, 2, 2, seed=3), mes1, mes1)


def test_recovery_to_json():
    rng = np.random.default_rng(13)
    n = channels.random_channel(2, 2, 2, seed=47)
    r = rc.universal_recovery(rand_state(rng, 2), n)
    obj = rc.recovery_to_json(r)
    assert obj["kind"] == "universal"
    assert "quadrature" not in obj
    np.testing.assert_allclose(linalg.matrix_from_json(obj["choi"]), r.rec.choi)
