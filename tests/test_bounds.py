import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan import bounds as bd, channels, divergences as dv, linalg, superchannels as sc

from telecov_reference import telecov_divergence, telecov_entropy

LIGHT = dv.OptimizerOpts(restarts=4, max_evals=400, seed=0)
PAULI = channels.weyl_heisenberg_spec(2)  # the group every pauli_channel is covariant under


def pauli_channel(seed, d=2):
    spec = channels.weyl_heisenberg_spec(d)
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d * d))
    kraus = [np.sqrt(pi) * u for pi, u in zip(p, spec.reps_in)]
    return channels.telecov_channel(spec, channels.channel_from_kraus(kraus))


def unitary_super(seed, d=2):
    rng = np.random.default_rng(seed)
    u = channels.haar_isometry(d, d, rng)
    v = channels.haar_isometry(d, d, rng)
    return sc.random_isometry_super([1.0], [u], [v])


def pauli_mixture_super(seed, terms=3):
    spec = channels.weyl_heisenberg_spec(2)
    rng = np.random.default_rng(seed)
    pre = [spec.reps_in[i] for i in rng.integers(0, 4, size=terms)]
    post = [spec.reps_in[i] for i in rng.integers(0, 4, size=terms)]
    return sc.random_isometry_super(rng.dirichlet(np.ones(terms)), pre, post)


def identity_super(d=2):
    return sc.super_from_rep(channels.identity_channel(d * d).choi, (d, d, d, d))


def rand_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T + 0.05 * np.eye(d)
    return rho / np.trace(rho).real


def hermitian(x):
    return (x + x.conj().T) / 2


def test_channel_dpi_identity_theta():
    n = channels.random_channel(2, 2, 4, 11)
    m = channels.random_channel(2, 2, 4, 12)
    rec = bd.verify_channel_dpi(n, m, identity_super(), opts=LIGHT)
    assert rec.check_id == "channel-dpi"
    assert abs(rec.slack) <= 2e-4
    assert rec.passed


def test_channel_dpi_isometry_on_telecov_pair():
    n, m = pauli_channel(21), pauli_channel(22)
    rng = np.random.default_rng(23)
    us = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
    vs = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
    theta = sc.random_isometry_super([0.7, 0.3], us, vs)
    rec = bd.verify_channel_dpi(n, m, theta, opts=LIGHT)
    assert rec.slack >= -1e-3
    assert rec.passed


def test_channel_dpi_equal_channels():
    n = channels.random_channel(2, 2, 4, 31)
    rec = bd.verify_channel_dpi(n, n, unitary_super(32), opts=LIGHT)
    assert abs(rec.lhs) <= 1e-8
    assert abs(rec.rhs) <= 1e-8


def test_channel_dpi_rejects_uncertified():
    n = channels.random_channel(2, 2, 4, 41)
    with pytest.raises(ValueError):
        bd.verify_channel_dpi(n, n, bd.depolarizing_supermap((2, 2, 2, 2)), opts=LIGHT)
    m = channels.random_channel(3, 3, 3, 42)
    with pytest.raises(ValueError):
        bd.verify_channel_dpi(m, m, identity_super(), opts=LIGHT)


def test_entropy_gain_identity_saturates_exactly():
    rec = bd.verify_entropy_gain_remainder(identity_super(), pauli_channel(51))
    assert rec.check_id == "entropy-gain-super"
    assert rec.params["entropy_after"] == rec.params["entropy_before"]
    assert rec.lhs == 0.0
    assert rec.params["alpha"] == 1.0
    assert rec.params["delta_prime"] == 0.0
    assert rec.params["gamma_term"] == 0.0
    # rhs is D(C || C_alpha) + delta', zero up to rounding.
    assert 0.0 <= rec.rhs <= 1e-12
    assert rec.passed


def test_entropy_gain_unitary_super_telecov():
    mes = dv.maximally_entangled(2)
    rec = bd.verify_entropy_gain_remainder(
        unitary_super(61), pauli_channel(62), psi=mes, phi=mes
    )
    assert rec.params["delta_prime"] == 0.0
    np.testing.assert_allclose(rec.params["alpha"], 1.0, atol=1e-8)
    assert abs(rec.params["gamma_term"]) <= 1e-8
    assert rec.slack >= -1e-3
    assert rec.params["witness_full_rank"]


def test_entropy_gain_reference_dim_drop():
    trace_channel = channels.channel_from_choi(np.eye(4, dtype=complex), 4, 1)
    theta = bd.replacer_supermap(pauli_channel(71), 4, 1)
    rec = bd.verify_entropy_gain_remainder(
        theta, trace_channel, psi=dv.maximally_entangled(4), phi=dv.maximally_entangled(2)
    )
    np.testing.assert_allclose(rec.params["delta_prime"], 1.0, atol=1e-12)
    assert rec.params["gamma_term"] is None
    np.testing.assert_allclose(rec.params["alpha"], 1.0, atol=1e-10)
    assert rec.slack >= -1e-6


def test_positive_map_gain_identity():
    rng = np.random.default_rng(81)
    rec = bd.entropy_gain_positive_map(channels.identity_channel(2), rand_density(rng, 2))
    assert rec.check_id == "entropy-gain-positive-map"
    assert abs(rec.slack) <= 1e-12
    assert rec.passed
    assert set(rec.witnesses) == {"rho", "map"}


def test_positive_map_gain_transpose():
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    transpose = channels.channel_from_choi(swap, 2, 2)
    rng = np.random.default_rng(82)
    rec = bd.entropy_gain_positive_map(transpose, rand_density(rng, 2))
    assert rec.passed
    assert "adjoint-power" not in rec.params["terms"]


def test_positive_map_gain_mixed_unitary():
    spec = channels.weyl_heisenberg_spec(2)
    for seed in range(20):
        rng = np.random.default_rng((83, seed))
        p = rng.dirichlet(np.ones(4))
        f = channels.channel_from_kraus([np.sqrt(pi) * u for pi, u in zip(p, spec.reps_in)])
        rec = bd.entropy_gain_positive_map(f, rand_density(rng, 2))
        np.testing.assert_allclose(rec.params["alpha"], 1.0, atol=1e-12)
        assert "unital-scaling" in rec.params["terms"]
        assert rec.slack >= -1e-8


def test_positive_map_gain_scaled_cptp_sweep():
    for seed in range(200):
        rng = np.random.default_rng((84, seed))
        din, dout = rng.integers(2, 4, size=2)
        base = channels.random_channel(int(din), int(dout), int(rng.integers(2, 5)), seed)
        scale = rng.uniform(0.5, 2.0)
        f = channels.channel_from_kraus([np.sqrt(scale) * k for k in base.kraus])
        rec = bd.entropy_gain_positive_map(f, rand_density(rng, int(din)))
        assert rec.slack >= -1e-8


def test_positive_map_gain_large_alpha_does_not_overflow():
    # alpha = 200: alpha^alpha and (F* F rho)^alpha both overflow a float.
    f = channels.channel_from_kraus([np.sqrt(200.0) * np.eye(2)])
    rec = bd.entropy_gain_positive_map(f, np.eye(2) / 2)
    want = -1329.7712379549453  # 2 * 100 * log2(1/100) - 1, by hand
    assert rec.passed
    assert rec.lhs == pytest.approx(want, rel=1e-14)
    assert rec.params["terms"]["power"] == pytest.approx(want, rel=1e-14)
    assert rec.params["terms"]["adjoint-power"] == pytest.approx(want, rel=1e-14)


def test_positive_map_gain_spread_overflow_leaves_out_adjoint_power():
    # alpha = 1000 and F rho = diag(600, 4): (lambda_max / s)^alpha = 150^1000
    # overflows a float, so the adjoint-power term is left out, as for a
    # rank-deficient output, and the record keeps the power term.
    # Neither call may warn or raise. With F*(1) = alpha 1 (the second map)
    # the record passes, as the power term equals the gain.
    diag = channels.channel_from_kraus([np.sqrt(1000.0) * np.diag([1.0, 0.1])])
    scaled = channels.channel_from_kraus([np.sqrt(1000.0) * np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = bd.entropy_gain_positive_map(diag, np.diag([0.6, 0.4]))
        passing = bd.entropy_gain_positive_map(scaled, np.diag([0.99, 0.01]))
    assert rec.params["cp"] and rec.params["output_full_rank"]
    assert set(rec.params["terms"]) == {"power"}
    assert np.isfinite(rec.rhs) and rec.rhs == rec.params["terms"]["power"]
    assert set(passing.params["terms"]) == {"power"}
    assert passing.passed
    assert passing.rhs == pytest.approx(passing.lhs, rel=1e-12)


def test_positive_map_gain_rounding_beyond_psd_tol_leaves_out_adjoint_power():
    # alpha = 50 and rho off F's eigenbasis: F*((F rho / s)^alpha) has norm
    # near 1e32, and its rounding leaves an eigenvalue near -4.5e15, far
    # below -PSD_TOL, which rel_entropy would reject.  The term is left out,
    # as for overflow, and the record keeps the power term.
    f = channels.channel_from_kraus([np.sqrt(50.0) * np.diag([1.0, 0.99])])
    rho = np.array([[0.5, 0.3], [0.3, 0.5]])
    frho = hermitian(channels.apply(f, rho))
    s = np.linalg.eigvalsh(frho)[0]
    power = linalg.mat_fn_psd(*linalg.herm_eig(frho / s), lambda w: w**50.0)
    hat = hermitian(channels.apply_adjoint(f, power))
    assert np.linalg.eigvalsh(hat)[0] < -1e15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = bd.entropy_gain_positive_map(f, rho)
    assert rec.params["cp"] and rec.params["output_full_rank"]
    assert set(rec.params["terms"]) == {"power"}
    assert np.isfinite(rec.lhs) and rec.rhs == rec.params["terms"]["power"]


def test_positive_map_remainders_match_their_direct_forms():
    cases = []
    for seed in range(20):
        rng = np.random.default_rng((86, seed))
        base = channels.random_channel(2, 3, 3, seed)
        scale = rng.uniform(0.5, 2.0)
        f = channels.channel_from_kraus([np.sqrt(scale) * k for k in base.kraus])
        cases.append((f, rand_density(rng, 2)))
    # alpha = 23 and F rho = diag(13.8, 4.508): divided by its largest
    # eigenvalue, the power's small eigenvalue would fall below the cutoff.
    f = channels.channel_from_kraus([np.sqrt(23.0) * np.diag([1.0, 0.7])])
    cases.append((f, np.diag([0.6, 0.4]).astype(complex)))
    for f, rho in cases:
        rec = bd.entropy_gain_positive_map(f, rho)
        alpha = rec.params["alpha"]
        frho = hermitian(channels.apply(f, rho))
        pushed = hermitian(channels.apply_adjoint(f, frho))
        pushed_pow = linalg.mat_fn_psd(*linalg.herm_eig(pushed), lambda w: w**alpha)
        frho_pow = linalg.mat_fn_psd(*linalg.herm_eig(frho), lambda w: w**alpha)
        power = dv.rel_entropy(rho, pushed_pow / alpha**alpha)
        hat = hermitian(channels.apply_adjoint(f, frho_pow)) / alpha
        terms = rec.params["terms"]
        np.testing.assert_allclose(terms["power"], power, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(
            terms["adjoint-power"], dv.rel_entropy(rho, hat), rtol=1e-12, atol=1e-10
        )


def test_positive_map_gain_sharper_needs_full_rank():
    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    f = channels.replacer_channel(pure, 2)
    rng = np.random.default_rng(85)
    rec = bd.entropy_gain_positive_map(f, rand_density(rng, 2))
    assert rec.params["cp"] and not rec.params["output_full_rank"]
    assert "adjoint-power" not in rec.params["terms"]


def test_refined_dpi_equal_pair():
    n = channels.random_channel(2, 2, 4, 91)
    rec = bd.verify_refined_dpi(pauli_mixture_super(92), n, n, opts=LIGHT)
    assert not rec.skipped
    assert rec.params["fidelity"] >= 1.0 - 1e-6
    assert rec.slack >= -1e-6


def test_refined_dpi_identity_theta():
    n = channels.random_channel(2, 2, 4, 101)
    m = channels.random_channel(2, 2, 4, 102)
    rec = bd.verify_refined_dpi(identity_super(), n, m, opts=LIGHT)
    np.testing.assert_allclose(rec.params["fidelity"], 1.0, atol=1e-6)
    assert rec.slack >= -2e-4


def test_refined_dpi_telecov_sweep():
    for seed in range(5):
        n, m = pauli_channel((111, seed)), pauli_channel((112, seed))
        theta = pauli_mixture_super((113, seed))
        rec = bd.verify_refined_dpi(theta, n, m, opts=LIGHT)
        assert not rec.skipped
        # Both pairs are Pauli channels: each certified interval holds its
        # closed form, and the lhs reads lower before against upper after.
        after = sc.apply_super(theta, n), sc.apply_super(theta, m)
        for (lo, hi), exact in zip(
            (rec.params["before"], rec.params["after"]),
            (telecov_divergence(n, m), telecov_divergence(*after)),
        ):
            assert 0.0 <= hi - lo <= dv.ASCENT_GAP
            assert lo - 1e-12 <= exact <= hi + 1e-12
        assert (rec.params["lhs_end"], rec.params["rhs_end"]) == ("lower", "point")
        assert rec.lhs == rec.params["before"][0] - rec.params["after"][1]
        assert rec.slack >= -1e-3


def test_refined_dpi_skips_without_a_witness_coordinate_completion():
    # The completion of theta.rep with sigma0 = 1/d is CP, but in the
    # coordinates of a non-maximally entangled witness it is not.
    theta = pauli_mixture_super(114)
    assert sc.tp_fix_map(theta.rep).flags.cp.status == "yes"
    psi = dv.pure_bipartite(np.diag([1.0, 0.5]))
    fixed = sc.tp_fix_map(sc.generalized_rep(theta, psi, dv.maximally_entangled(2)))
    np.testing.assert_allclose(fixed.flags.cp.certificate, -0.375, atol=1e-12)
    n, m = pauli_channel((115, 0)), pauli_channel((115, 1))
    rec = bd.verify_refined_dpi(theta, n, m, opts=LIGHT, psi=psi)
    assert rec.skipped and not rec.passed
    assert rec.params["reason"] == (
        "the completion with sigma0 = 1/d of the witness-coordinate representing map is not CP"
    )
    np.testing.assert_allclose(rec.params["completion_min_eig"], -0.375, atol=1e-12)


def test_entropy_nondecrease_replacer_to_rtilde():
    theta = bd.replacer_supermap(channels.depolarizing_r_tilde(2, 2), 2, 2)
    rec = bd.verify_entropy_gain_rsub(theta, channels.random_channel(2, 2, 4, 121))
    np.testing.assert_allclose(rec.lhs, 1.0, atol=1e-12)
    assert rec.slack >= -1e-9
    assert rec.params["r_preserving"] in (True, False)


def test_entropy_nondecrease_isometry_sweep():
    rng = np.random.default_rng(131)
    for seed in range(5):
        us = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
        vs = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
        theta = sc.random_isometry_super([0.5, 0.5], us, vs)
        n = channels.random_channel(2, 2, 2, (132, seed))
        rec = bd.verify_entropy_gain_rsub(theta, n)
        assert rec.slack >= -1e-3


def test_entropy_nondecrease_precondition():
    n0 = channels.channel_from_kraus([np.eye(2, dtype=complex)])
    theta = bd.replacer_supermap(n0, 2, 2)
    assert not sc.is_r_subpreserving(theta).verdict
    with pytest.raises(ValueError):
        bd.verify_entropy_gain_rsub(theta, channels.random_channel(2, 2, 4, 141))


def assert_reference_ordering(n, m, m_tilde):
    """D(N||M) >= D(N||M~) at every input when M~ - M is CP.

    Checked at the maximally entangled state and at each side's witness.
    """
    assert linalg.psd_check(linalg.herm_eigvals(m_tilde.choi - m.choi)).is_psd
    states = [dv.maximally_entangled(n.dim_in)]
    states += [dv.channel_divergence(n, ref, LIGHT).optimizer_state for ref in (m, m_tilde)]
    for state in states:
        assert dv.divergence_at(n, m, state) >= dv.divergence_at(n, m_tilde, state) - 1e-12


def product_divergence(n1, m1, n2, m2):
    """D(N1 (x) N2 || M1 (x) M2) at the product of the factors' witnesses, and their sum."""
    w1 = dv.channel_divergence(n1, m1, LIGHT).optimizer_state
    w2 = dv.channel_divergence(n2, m2, LIGHT).optimizer_state
    joint = dv.divergence_at(
        channels.tensor_channels(n1, n2),
        channels.tensor_channels(m1, m2),
        dv.pure_bipartite(np.kron(w1.a_psi, w2.a_psi)),
    )
    return joint, dv.divergence_at(n1, m1, w1) + dv.divergence_at(n2, m2, w2)


def test_ordering_equal_references():
    n = channels.random_channel(2, 2, 4, 151)
    m = channels.random_channel(2, 2, 4, 152)
    assert_reference_ordering(n, m, m)


def test_ordering_added_cp_reference():
    n = channels.random_channel(2, 2, 4, 161)
    m = channels.random_channel(2, 2, 4, 162)
    extra = channels.random_channel(2, 2, 4, 163)
    assert_reference_ordering(n, m, channels.channel_from_choi(m.choi + extra.choi, 2, 2))


def test_superadditivity_product_witness():
    n1 = channels.random_channel(2, 2, 4, 181)
    m1 = channels.random_channel(2, 2, 4, 182)
    n2 = channels.random_channel(2, 2, 4, 183)
    m2 = channels.random_channel(2, 2, 4, 184)
    joint, total = product_divergence(n1, m1, n2, m2)
    assert abs(joint - total) <= 1e-10


def test_superadditivity_degenerate_zeros():
    n = channels.random_channel(2, 2, 4, 191)
    joint, total = product_divergence(n, n, n, n)
    assert abs(joint - total) <= 1e-10
    assert abs(joint) <= 1e-8


def test_additivity_closed_form_anchors():
    spec2 = channels.weyl_heisenberg_spec(2)
    rt = channels.telecov_channel(spec2, channels.depolarizing_r_tilde(2, 2))
    ident = channels.telecov_channel(spec2, channels.identity_channel(2))
    rec = bd.verify_entropy_additivity(rt, rt)
    assert rec.params["path"] == "certified"
    assert rec.tolerance == 1e-8
    np.testing.assert_allclose(rec.params["joint"], 2.0, atol=1e-12)
    assert rec.passed
    rec = bd.verify_entropy_additivity(ident, rt)
    np.testing.assert_allclose(rec.params["joint"], 0.0, atol=1e-12)
    assert rec.passed
    rec = bd.verify_entropy_additivity(ident, ident)
    np.testing.assert_allclose(rec.params["joint"], -2.0, atol=1e-12)
    assert rec.passed


def test_additivity_pauli_sweep():
    for seed in range(5):
        rec = bd.verify_entropy_additivity(pauli_channel((201, seed)), pauli_channel((202, seed)))
        assert rec.params["path"] == "certified"
        assert rec.rhs <= 1e-8
        assert rec.passed


def test_additivity_checks_each_covariance_residual_once(monkeypatch):
    calls = []
    residual = channels.covariance_residual

    def counting(spec, n):
        calls.append(n.dim_in)
        return residual(spec, n)

    monkeypatch.setattr(channels, "covariance_residual", counting)
    n, m = pauli_channel((203, 0)), pauli_channel((203, 1))
    rec = bd.verify_entropy_additivity(n, m)
    # One check per twirled factor, and none after: the certified entropies
    # read no covariance.
    assert rec.params["path"] == "certified"
    assert calls == [2, 2]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(env=st.integers(1, 4), env2=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_additivity_passes_exactly_on_random_pairs(env, env2, seed):
    n = channels.random_channel(2, 2, env, (seed, 0))
    m = channels.random_channel(2, 2, env2, (seed, 1))
    rec = bd.verify_entropy_additivity(n, m)
    assert rec.params["path"] == "certified"
    assert rec.tolerance == 1e-8
    assert rec.passed
    assert set(rec.witnesses) == {"left", "right", "joint"}


def test_additivity_optimized_path():
    n = channels.random_channel(2, 2, 4, 211)
    m = channels.random_channel(2, 2, 4, 212)
    rec = bd.verify_entropy_additivity(n, m)
    assert rec.params["path"] == "certified"
    assert rec.tolerance == 1e-8
    assert rec.passed


def tilde_recovery(t_frak, xi=None):
    """Adjoint-based recovery X -> T*(X) + (tr X - tr T*(X)) xi; always TP."""
    dx = t_frak.dim_in
    if xi is None:
        xi = np.eye(dx) / dx
    else:
        xi = np.asarray(xi, dtype=complex)
        xi = linalg.check_density(xi, linalg.herm_eigvals(xi))
        if xi.shape != (dx, dx):
            raise ValueError("xi must live on the recovery output space")
    return sc.tp_fix_map(channels.adjoint(t_frak), xi)


def verify_telecov_entropy_gain(theta, n, spec, tolerance=bd.INEQ_TOL, xi=None):
    """Entropy gain on a channel covariant under spec against the simple-recovery bound.

    slack = (S[Theta(N)] - S[N]) - (D(C || recovered C) + log2(|A|/|C|)),
    with the recovery built from the adjoint representing map.  The map must
    be trace preserving and subunital in maximally-entangled coordinates;
    violations yield a skipped record.  Entropies use the covariant closed
    form where covariance_residual certifies N under spec and Theta(N) under
    spec (same slots) or the Weyl-Heisenberg group (c = d), otherwise
    certified intervals.
    """
    bd._require_superchannel(theta)
    a, b, c, d = theta.dims
    mes = dv.maximally_entangled
    t_frak = sc.generalized_rep(theta, mes(a), mes(c))
    tp_res = float(
        np.linalg.norm(channels.apply_adjoint(t_frak, np.eye(c * d)) - np.eye(a * b))
    )
    sub_diff = np.eye(c * d) - hermitian(channels.apply(t_frak, np.eye(a * b)))
    sub = linalg.psd_check(linalg.herm_eigvals(sub_diff))
    params = {"dims": list(theta.dims), "tp_residual": tp_res, "subunital_min_eig": sub.min_eig}

    def skipped(reason):
        nan, merged = float("nan"), {**params, "reason": reason}
        return bd._record("telecov-entropy-gain", nan, nan, tolerance, merged, {}, skipped=True)

    if tp_res > bd.EXACT_TOL:
        return skipped("representing map is not trace preserving in witness coordinates")
    if sub.min_eig < -bd.EXACT_TOL:
        return skipped("representing map is not subunital in witness coordinates")

    rec = tilde_recovery(t_frak, xi)
    c_state = hermitian(dv.choi_witness(n, mes(a)))
    recovered = hermitian(channels.apply(rec, hermitian(channels.apply(t_frak, c_state))))
    bound = dv.rel_entropy(c_state, recovered) + float(np.log2(a / c))

    tn = sc.apply_super(theta, n)
    s_before = s_after = None
    if channels.covariance_residual(spec, n) <= channels.COVARIANCE_TOL:
        s_before = telecov_entropy(n)
        out_spec = None
        if (c, d) == (n.dim_in, n.dim_out):
            out_spec = spec
        elif c == d:
            out_spec = channels.weyl_heisenberg_spec(c)
        if out_spec is not None and (
            channels.covariance_residual(out_spec, tn) <= channels.COVARIANCE_TOL
        ):
            s_after = telecov_entropy(tn)
    if s_before is None or s_after is None:
        before, after = dv.channel_entropy(n), dv.channel_entropy(tn)
        # The lower end of the gain: lower S[Theta(N)] against upper S[N].
        s_before, s_after = before.upper, after.value
        params["path"] = "certified"
    else:
        params["path"] = "telecov"
    params["recovery_term"] = float(bound)
    wit = {"choi_state": linalg.matrix_to_json(c_state)}
    return bd._record("telecov-entropy-gain", s_after - s_before, bound, tolerance, params, wit)


def test_telecov_gain_identity_theta():
    rec = verify_telecov_entropy_gain(identity_super(), pauli_channel(221), PAULI)
    assert not rec.skipped
    assert rec.params["path"] == "telecov"
    assert rec.lhs == 0.0
    assert abs(rec.slack) <= 1e-9


def test_telecov_gain_replacer_to_rtilde():
    rep = channels.tensor_channels(channels.identity_channel(2), channels.depolarizing_r_tilde(2, 2))
    theta = sc.super_from_rep(rep.choi, (2, 2, 2, 2))
    rec = verify_telecov_entropy_gain(theta, pauli_channel(231), PAULI)
    assert not rec.skipped
    assert np.isfinite(rec.params["recovery_term"])
    assert rec.slack >= -1e-9
    assert abs(rec.slack) <= 1e-6


def test_telecov_gain_mixture_sweep():
    for seed in range(5):
        rec = verify_telecov_entropy_gain(
            pauli_mixture_super((241, seed)), pauli_channel((242, seed)), PAULI
        )
        assert not rec.skipped
        assert rec.params["path"] == "telecov"
        assert rec.slack >= -1e-3


def test_telecov_gain_hypothesis_violation_skips():
    theta = bd.replacer_supermap(channels.channel_from_kraus([np.eye(2, dtype=complex)]), 2, 2)
    rec = verify_telecov_entropy_gain(theta, pauli_channel(251), PAULI)
    assert rec.skipped
    assert not rec.passed
    assert np.isnan(rec.slack)
    assert "reason" in rec.params
    blob = bd.record_to_json(rec)
    assert blob["lhs"] is None and blob["slack"] is None
    assert blob["skipped"] is True


def test_super_divergence_replacer_witness_bound():
    n0 = pauli_channel(281)
    theta = bd.replacer_supermap(n0, 2, 2)
    gamma = bd.depolarizing_supermap((2, 2, 2, 2))
    ext_t = sc.extend_super_with_identity(theta, 2)
    ext_g = sc.extend_super_with_identity(gamma, 2)
    base = dv.channel_divergence(n0, channels.depolarizing_r(2, 2), LIGHT)
    product = dv.pure_bipartite(
        np.kron(dv.maximally_entangled(2).a_psi, base.optimizer_state.a_psi)
    )
    inner = dv.OptimizerOpts(restarts=1, max_evals=50, seed=0)
    for seed in range(3):
        witness = channels.random_channel(4, 4, 2, (282, seed))
        n, m = sc.apply_super(ext_t, witness), sc.apply_super(ext_g, witness)
        val = dv.channel_divergence(n, m, inner).value
        assert val >= base.value - 1.0 - 1e-3
        assert val >= dv.divergence_at(n, m, product) - 1e-9


def test_super_entropy_ordering_under_unitary_wrapping():
    theta = bd.replacer_supermap(channels.random_channel(2, 2, 4, 291), 2, 2)
    gamma = bd.depolarizing_supermap((2, 2, 2, 2))
    rng = np.random.default_rng(292)
    g1 = sc.random_isometry_super(
        [1.0], [channels.haar_isometry(2, 2, rng)], [channels.haar_isometry(2, 2, rng)]
    )
    u2 = channels.haar_isometry(2, 2, rng)
    v2 = channels.haar_isometry(2, 2, rng)
    g2 = sc.random_isometry_super([1.0], [u2], [v2])
    wrapped = sc.super_from_rep(
        channels.compose(g2.rep, channels.compose(theta.rep, g1.rep)).choi, (2, 2, 2, 2)
    )
    assert wrapped.flags.completely_cp_preserving.status == "yes"
    assert wrapped.flags.tp_preserving.status == "yes"
    inner = dv.OptimizerOpts(restarts=2, max_evals=250, seed=0)
    witness = channels.random_channel(2, 2, 2, 293)
    probe = dv.channel_divergence(
        sc.apply_super(wrapped, witness), sc.apply_super(gamma, witness), inner
    )
    pulled = sc.apply_super(g1, witness)
    moved = dv.pure_bipartite(probe.optimizer_state.a_psi @ u2.T)
    n, m = sc.apply_super(theta, pulled), sc.apply_super(gamma, pulled)
    matched = dv.channel_divergence(n, m, inner)
    assert matched.value >= dv.divergence_at(n, m, moved) - 1e-9
    assert -probe.value >= -matched.value - 2e-3


def test_super_divergence_superadditive_product_witness():
    t1 = bd.replacer_supermap(channels.random_channel(2, 2, 4, 301), 2, 2)
    t2 = bd.replacer_supermap(channels.random_channel(2, 2, 4, 302), 2, 2)
    gamma = bd.depolarizing_supermap((2, 2, 2, 2))
    joint_t = sc.tensor_supermaps(t1, t2)
    joint_g = sc.tensor_supermaps(gamma, gamma)
    np.testing.assert_allclose(
        joint_g.rep.choi, bd.depolarizing_supermap((4, 4, 4, 4)).rep.choi, atol=1e-12
    )
    inner = dv.OptimizerOpts(restarts=2, max_evals=200, seed=0)
    w1 = channels.random_channel(2, 2, 2, 303)
    w2 = channels.random_channel(2, 2, 2, 304)
    w = channels.tensor_channels(w1, w2)
    np.testing.assert_allclose(
        sc.apply_super(joint_t, w).choi,
        channels.tensor_channels(
            sc.apply_super(t1, w1), sc.apply_super(t2, w2)
        ).choi,
        atol=1e-12,
    )
    p1 = dv.channel_divergence(sc.apply_super(t1, w1), sc.apply_super(gamma, w1), inner)
    p2 = dv.channel_divergence(sc.apply_super(t2, w2), sc.apply_super(gamma, w2), inner)
    joint_state = dv.pure_bipartite(
        np.kron(p1.optimizer_state.a_psi, p2.optimizer_state.a_psi)
    )
    n, m = sc.apply_super(joint_t, w), sc.apply_super(joint_g, w)
    joint_val = dv.channel_divergence(n, m, dv.OptimizerOpts(restarts=1, max_evals=5, seed=0)).value
    assert joint_val >= dv.divergence_at(n, m, joint_state) - 1e-9
    assert joint_val >= p1.value + p2.value - 1e-3


def test_records_replay_from_stored_inputs():
    n = channels.random_channel(2, 2, 4, 311)
    m = channels.random_channel(2, 2, 4, 312)
    theta = unitary_super(313)
    first = bd.verify_channel_dpi(n, m, theta, opts=LIGHT)
    again = bd.verify_channel_dpi(n, m, theta, opts=LIGHT)
    assert abs(first.lhs - again.lhs) <= 1e-12
    assert abs(first.rhs - again.rhs) <= 1e-12
    stored = linalg.matrix_from_json(first.witnesses["before"])
    rebuilt = dv.pure_bipartite(stored)
    np.testing.assert_allclose(
        dv.divergence_at(n, m, rebuilt), first.lhs, atol=1e-12
    )


def test_supermap_constructor_flags():
    dep = bd.depolarizing_supermap((2, 2, 2, 2))
    assert dep.flags.completely_cp_preserving.status == "yes"
    assert dep.flags.tp_preserving.status == "no"
    rep = bd.replacer_supermap(channels.random_channel(2, 2, 4, 321), 2, 2)
    assert rep.flags.completely_cp_preserving.status == "yes"
    assert rep.flags.tp_preserving.status == "yes"
    n = channels.random_channel(2, 2, 4, 322)
    np.testing.assert_allclose(
        sc.apply_super(rep, n).choi,
        channels.random_channel(2, 2, 4, 321).choi, atol=1e-12,
    )


def test_entropy_nondecrease_reads_sound_ends():
    rng = np.random.default_rng(133)
    us = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
    vs = [channels.haar_isometry(2, 2, rng) for _ in range(2)]
    theta = sc.random_isometry_super([0.5, 0.5], us, vs)
    rec = bd.verify_entropy_gain_rsub(theta, channels.random_channel(2, 2, 2, 134))
    before, after = rec.params["before"], rec.params["after"]
    assert 0.0 <= before[1] - before[0] <= 1e-9
    assert 0.0 <= after[1] - after[0] <= 1e-9
    assert (rec.lhs, rec.rhs) == (after[0], before[1])
    assert (rec.params["lhs_end"], rec.params["rhs_end"]) == ("lower", "upper")
