import numpy as np
from hypothesis import given, settings, strategies as st

from superchan import channels, divergences as dv, linalg, recovery as rc, superchannels as sc
from test_bounds import tilde_recovery


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
    np.testing.assert_allclose(r.choi, channels.channel_from_kraus([u.conj().T]).choi, atol=1e-10)


def test_petz_replacer_fixed_point():
    rt = channels.depolarizing_r_tilde(2, 2)
    r = rc.petz(np.eye(2) / 2, rt)
    np.testing.assert_allclose(r.choi, rt.choi, atol=1e-12)


def test_petz_recovers_sigma():
    rng = np.random.default_rng(1)
    for seed in range(6):
        n = channels.random_channel(2, 2, 2, seed=seed)
        for rank in (2, 1):
            sig = rand_state(rng, 2, rank=rank)
            out = channels.apply(rc.petz(sig, n), channels.apply(n, sig))
            assert linalg.trace_norm(out - sig) <= 1e-9


def test_petz_cp_and_trace_nonincreasing():
    rng = np.random.default_rng(2)
    for _ in range(200):
        din, dout = rng.integers(2, 4, size=2)
        n = channels.random_channel(int(din), int(dout), 2, seed=int(rng.integers(1 << 30)))
        r = rc.petz(rand_state(rng, int(din)), n)
        assert r.flags.cp.certificate >= -1e-9
        back = channels.apply_adjoint(r, np.eye(int(din)))
        w, _ = linalg.herm_eig(back)
        assert w[-1] <= 1 + 1e-9


def _imaginary_power(spec, t):
    """p^{it} on the support of p, zero elsewhere (a partial isometry)."""
    w, v = spec
    phases = np.where(w > linalg.SUPPORT_CUTOFF, np.exp(1j * t * rc._support_log(w)), 0.0)
    return (v * phases) @ v.conj().T


def rotated_petz(sigma, n, t):
    """Petz map conjugated by imaginary powers of sigma and n(sigma)."""
    s_spec, m_spec, base = rc._petz_ingredients(sigma, n)
    u = _imaginary_power(s_spec, -t)
    w = _imaginary_power(m_spec, t)
    return channels.channel_from_kraus([u @ b @ w for b in base])


def test_rotated_matches_petz_at_zero():
    rng = np.random.default_rng(3)
    n = channels.random_channel(2, 3, 2, seed=9)
    sig = rand_state(rng, 2)
    np.testing.assert_allclose(
        rotated_petz(sig, n, 0.0).choi, rc.petz(sig, n).choi, atol=1e-12
    )


def test_rotated_recovers_sigma():
    rng = np.random.default_rng(4)
    n = channels.random_channel(2, 2, 2, seed=11)
    sig = rand_state(rng, 2)
    for t in (-1.3, 0.7, 2.5):
        out = channels.apply(rotated_petz(sig, n, t), channels.apply(n, sig))
        assert linalg.trace_norm(out - sig) <= 1e-9


def test_rotated_cp_at_t_one():
    rng = np.random.default_rng(5)
    r = rotated_petz(rand_state(rng, 2), channels.random_channel(2, 2, 2, seed=13), 1.0)
    assert r.flags.cp.status == "yes"


def test_universal_recovers_sigma():
    rng = np.random.default_rng(6)
    n = channels.random_channel(2, 2, 2, seed=17)
    for rank in (2, 1):
        sig = rand_state(rng, 2, rank=rank)
        out = channels.apply(rc.universal_recovery(sig, n), channels.apply(n, sig))
        assert linalg.trace_norm(out - sig) <= 1e-6


def test_universal_trace_preserving():
    rng = np.random.default_rng(7)
    for din, dout in ((2, 2), (2, 3), (3, 2)):
        n = channels.random_channel(din, dout, 3, seed=din * 7 + dout)
        r = rc.universal_recovery(rand_state(rng, din), n)
        assert r.flags.tp.certificate <= 1e-6
        assert r.flags.cp.status == "yes"
    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    r = rc.universal_recovery(pure, channels.identity_channel(2))
    assert r.flags.tp.certificate <= 1e-6


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
    choi = sum(w * rotated_petz(sig, n, t / 2).choi for t, w in zip(ts, ws))
    nsig = channels.apply(n, sig)
    nsig = (nsig + nsig.conj().T) / 2
    comp = np.eye(n.dim_out) - linalg.support_projector(*linalg.herm_eig(nsig))
    return choi + np.kron(comp.T, np.eye(n.dim_in) / n.dim_in)


def test_universal_matches_rotated_average():
    rng = np.random.default_rng(8)
    # (d, rank of sigma, dim_out, env); the last case has a rank-one n(sigma).
    cases = ((2, 2, 2, 2), (2, 1, 2, 2), (3, 3, 2, 3), (3, 2, 3, 2), (2, 1, 2, 1))
    for d, rank, dim_out, env in cases:
        n = channels.random_channel(d, dim_out, env, seed=19 + d * rank)
        sig = rand_state(rng, d, rank=rank)
        r = rc.universal_recovery(sig, n)
        np.testing.assert_allclose(r.choi, simpson_universal(sig, n), rtol=0, atol=1e-12)


def loop_petz_kraus(sig, n):
    """sqrt(sig) K^dagger n(sig)^(-1/2), one product per Kraus operator (reference route)."""
    nsig = channels.apply(n, sig)
    sig_sqrt = linalg.mat_fn_psd(*linalg.herm_eig(sig), np.sqrt)
    nsig_isqrt = linalg.mat_fn_psd(
        *linalg.herm_eig((nsig + nsig.conj().T) / 2), lambda w: 1.0 / np.sqrt(w)
    )
    return [sig_sqrt @ k.conj().T @ nsig_isqrt for k in n.kraus]


def loop_universal_choi(sig, n):
    """The universal recovery's closed-form Choi, one Kraus operator at a time (reference route)."""
    nsig = channels.apply(n, sig)
    nsig = (nsig + nsig.conj().T) / 2
    (sw, sv), (mw, mv) = linalg.herm_eig(sig), linalg.herm_eig(nsig)
    core = np.stack([(sv.conj().T @ b @ mv).T.reshape(-1) for b in loop_petz_kraus(sig, n)])
    lam = 0.5 * (rc._support_log(sw)[None, :] - rc._support_log(mw)[:, None]).reshape(-1)
    basis = np.kron(mv.conj(), sv)
    choi = basis @ linalg.schur_sinh_ratio(core.T @ core.conj(), lam) @ basis.conj().T
    comp = np.eye(n.dim_out) - linalg.support_projector(mw, mv)
    choi = choi + np.kron(comp.T, np.eye(n.dim_in) / n.dim_in)
    return (choi + choi.conj().T) / 2


def test_batched_petz_and_universal_match_the_per_kraus_loop():
    rng = np.random.default_rng(9)
    # (d, rank of sigma, dim_out, env), as in test_universal_matches_rotated_average.
    cases = ((2, 2, 2, 2), (2, 1, 2, 2), (3, 3, 2, 3), (3, 2, 3, 2), (2, 1, 2, 1))
    for d, rank, dim_out, env in cases:
        n = channels.random_channel(d, dim_out, env, seed=23 + d * rank)
        sig = rand_state(rng, d, rank=rank).astype(complex)
        loop = loop_petz_kraus(sig, n)
        petz = rc.petz(sig, n)
        assert petz.kraus.shape == (len(loop), d, dim_out)
        for a, b in zip(petz.kraus, loop):
            assert np.abs(a - b).max() <= 1e-14
        universal = rc.universal_recovery(sig, n).choi
        assert np.abs(universal - loop_universal_choi(sig, n)).max() <= 1e-14


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
    rec = rc.universal_recovery(sig, n)
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
        f = linalg.fidelity(rho, channels.apply(r, channels.apply(n, rho)))
        assert drop + np.log2(f) >= -1e-3


def test_tilde_identity_map():
    r = tilde_recovery(channels.identity_channel(4))
    np.testing.assert_allclose(r.choi, channels.identity_channel(4).choi, atol=1e-12)


def test_tilde_unital_input_drops_correction():
    rng = np.random.default_rng(11)
    us = [channels.haar_isometry(3, 3, rng) for _ in range(3)]
    mix = channels.channel_from_kraus([np.sqrt(p) * u for p, u in zip((0.5, 0.3, 0.2), us)])
    r = tilde_recovery(mix)
    np.testing.assert_allclose(r.choi, channels.adjoint(mix).choi, atol=1e-12)


def test_tilde_trace_preserving_subunital():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = g / (1.2 * np.linalg.norm(g, ord=2))
    contraction = channels.channel_from_kraus([a])
    r = tilde_recovery(contraction, xi=rand_state(rng, 3))
    assert r.flags.tp.certificate <= 1e-10
    assert r.flags.cp.status == "yes"
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    out = channels.apply(r, x)
    assert abs(np.trace(out) - np.trace(x)) <= 1e-10


def recover_channel(theta, psi, phi, inner, n_tilde):
    """Apply the recovery supermap built from `inner` to a channel on theta's output slot."""
    a, b, _, _ = theta.dims
    y = channels.apply(inner, dv.choi_witness(n_tilde, phi))
    pullback = np.kron(np.linalg.inv(psi.a_psi), np.eye(b))
    choi = pullback @ y @ pullback.conj().T
    return channels.channel_from_choi((choi + choi.conj().T) / 2, a, b)


def recovery_supermap(theta, m, psi, phi):
    """Recovery supermap anchored at m, which undoes theta exactly on m.

    The representing map in witness coordinates is completed to a channel,
    and the universal recovery is built against the anchor's Choi state.
    Returns that recovery channel and the trace-norm residual of recovering
    m from theta(m) through the inverse witness congruence.
    """
    fixed = sc.tp_fix_map(sc.generalized_rep(theta, psi, phi))
    assert fixed.flags.cp.status == "yes"
    anchor_state = dv.choi_witness(m, psi)
    inner = rc.universal_recovery((anchor_state + anchor_state.conj().T) / 2, fixed)
    recovered = recover_channel(theta, psi, phi, inner, sc.apply_super(theta, m))
    return inner, linalg.trace_norm(recovered.choi - m.choi)


def test_recovery_supermap_identity_superchannel():
    theta = sc.random_isometry_super([1.0], [np.eye(2)], [np.eye(2)])
    mes = dv.maximally_entangled(2)
    anchor = channels.random_channel(2, 2, 4, seed=41)
    inner, residual = recovery_supermap(theta, anchor, mes, mes)
    assert residual <= 1e-6
    other = channels.random_channel(2, 2, 2, seed=43)
    out = recover_channel(theta, mes, mes, inner, other)
    assert linalg.trace_norm(out.choi - other.choi) <= 1e-6


def test_recovery_supermap_telecov_anchor():
    theta = unitary_mixture_super(20)
    anchor = telecov_anchor(21)
    mes = dv.maximally_entangled(2)
    inner, residual = recovery_supermap(theta, anchor, mes, mes)
    assert residual <= 1e-6
    recovered = recover_channel(theta, mes, mes, inner, sc.apply_super(theta, anchor))
    assert linalg.trace_norm(recovered.choi - anchor.choi) <= 1e-6
    assert inner.flags.cp.status == "yes"
    assert inner.flags.tp.certificate <= 1e-6


def test_recovery_supermap_50_random_anchors():
    theta = unitary_mixture_super(22)
    mes = dv.maximally_entangled(2)
    worst = 0.0
    for seed in range(50):
        worst = max(worst, recovery_supermap(theta, telecov_anchor(seed), mes, mes)[1])
    assert worst <= 1e-6
