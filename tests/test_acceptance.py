"""End-to-end acceptance checks at fixed tolerances.

Each test covers one shipped guarantee and prints a single PASS line with the
observed margin; run with -s to see them.
"""

import time
from dataclasses import replace

import numpy as np

from superchan import bounds as bd, channels, divergences as dv, linalg, recovery as rc, superchannels as sc

from stacked_grid import dense_grid
from telecov_reference import telecov_entropy

LIGHT = dv.OptimizerOpts(restarts=4, max_evals=400, seed=0)


def rand_density(rng, dim, floor=0.05):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + floor * np.eye(dim)
    return rho / np.trace(rho).real


def pauli_channel(seed):
    spec = channels.weyl_heisenberg_spec(2)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(4))
    kraus = [np.sqrt(w) * u for w, u in zip(weights, spec.reps_in)]
    return channels.telecov_channel(spec, channels.channel_from_kraus(kraus))


def haar_mixture_super(seed, terms=2):
    rng = np.random.default_rng(seed)
    pre = [channels.haar_isometry(2, 2, rng) for _ in range(terms)]
    post = [channels.haar_isometry(2, 2, rng) for _ in range(terms)]
    return sc.random_isometry_super(rng.dirichlet(np.ones(terms)), pre, post)


def test_01_petz_recovery_exact():
    start = time.monotonic()
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng((101, k))
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        sigma = rand_density(rng, din)
        n = channels.random_channel(din, dout, din * dout, (101, k, 1))
        recovered = channels.apply(rc.petz(sigma, n), channels.apply(n, sigma))
        worst = max(worst, float(linalg.trace_norm(recovered - sigma)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed < 30.0
    print(f"PASS petz-recovery: max residual {worst:.2e} in {elapsed:.1f}s")


def test_02_state_dpi():
    worst = np.inf
    for k in range(500):
        rng = np.random.default_rng((102, k))
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        rho = rand_density(rng, din, floor=0.0)
        sigma = rand_density(rng, din)
        n = channels.random_channel(din, dout, 4, (102, k, 1))
        slack = dv.rel_entropy(rho, sigma) - dv.rel_entropy(
            channels.apply(n, rho), channels.apply(n, sigma)
        )
        worst = min(worst, float(slack))
    assert worst >= -1e-9
    print(f"PASS state-dpi: min slack {worst:.2e} over 500 triples")


def test_03_refined_state_dpi_with_recovery():
    worst = np.inf
    for k in range(100):
        rng = np.random.default_rng((103, k))
        d = int(rng.integers(2, 4))
        rho = rand_density(rng, d, floor=0.0)
        sigma = rand_density(rng, d, floor=0.1)
        n = channels.random_channel(d, d, d * d, (103, k, 1))
        rec = rc.universal_recovery(sigma, n)
        lhs = dv.rel_entropy(rho, sigma) - dv.rel_entropy(
            channels.apply(n, rho), channels.apply(n, sigma)
        )
        back = channels.apply(rec, channels.apply(n, rho))
        fid = max(linalg.fidelity(rho, back), np.finfo(float).tiny)
        worst = min(worst, float(lhs + np.log2(fid)))
    assert worst >= -1e-3
    print(f"PASS refined-state-dpi: min slack {worst:.2e} over 100 cases")


def test_04_depolarizing_closed_form_vs_optimizer():
    spec = channels.weyl_heisenberg_spec(2)
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        weights = [1.0 - 0.75 * p, p / 4, p / 4, p / 4]
        n = channels.channel_from_kraus(
            [np.sqrt(w) * u for w, u in zip(weights, spec.reps_in)]
        )
        closed = dv.vn_entropy(n.normalized_choi) - 1.0
        opt = dv.channel_entropy(n).value
        worst = max(worst, abs(opt - closed))
    assert worst <= 1e-4
    print(f"PASS depolarizing-closed-form: max deviation {worst:.2e}")


def test_05_channel_entropy_anchors():
    spec = channels.weyl_heisenberg_spec(2)
    s_rt = dv.channel_entropy(
        channels.telecov_channel(spec, channels.depolarizing_r_tilde(2, 2))
    ).value
    s_id = dv.channel_entropy(
        channels.telecov_channel(spec, channels.identity_channel(2))
    ).value
    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    s_rep = dv.channel_entropy(channels.replacer_channel(pure, 2)).value
    assert abs(s_rt - 1.0) <= 1e-8
    assert abs(s_rep) <= 1e-8
    assert abs(s_id + 1.0) <= 1e-8
    print(f"PASS entropy-anchors: {s_rt:.9f}, {s_rep:.2e}, {s_id:.9f}")


def test_06_entropy_additivity_closed_form():
    worst = 0.0
    for k in range(20):
        n, m = pauli_channel((106, k, 0)), pauli_channel((106, k, 1))
        rec = bd.verify_entropy_additivity(n, m)
        assert rec.params["path"] == "certified"
        # The certified joint entropy against the product's closed form.
        exact = telecov_entropy(channels.tensor_channels(n, m))
        lower, upper = rec.params["joint"]
        assert lower - 1e-12 <= exact <= upper + 1e-12
        worst = max(worst, rec.rhs)
    assert worst <= 1e-8
    print(f"PASS entropy-additivity: max residual {worst:.2e} over 20 pairs")


def test_07_entropy_nondecrease_under_isometry_supers():
    worst = np.inf
    for k in range(100):
        theta = haar_mixture_super((107, k))
        n = channels.random_channel(2, 2, 2, (107, k, 1))
        rec = bd.verify_entropy_gain_rsub(theta, n)
        worst = min(worst, rec.slack)
    assert worst >= -1e-3
    print(f"PASS entropy-nondecrease: min slack {worst:.2e} over 100 instances")


def test_08_refined_channel_dpi_covariant_suite():
    opts = dv.OptimizerOpts(restarts=2, max_evals=250, seed=0)
    worst = np.inf
    for k in range(50):
        n, m = pauli_channel((108, k, 0)), pauli_channel((108, k, 1))
        rec = bd.verify_refined_dpi(haar_mixture_super((108, k, 2)), n, m, opts)
        assert not rec.skipped
        worst = min(worst, rec.slack)
    assert worst >= -1e-3
    print(f"PASS refined-channel-dpi: min slack {worst:.2e} over 50 instances")


def test_09_tp_completion_fixed_example():
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 0] = np.sqrt(2.0)
    k2 = np.zeros((2, 2), dtype=complex)
    k2[1, 1] = 1.0 / np.sqrt(2.0)
    base = channels.channel_from_kraus([k1, k2])
    sigma = np.diag([1.99, -0.2]).astype(complex)
    fixed = sc.tp_fix_map(base, sigma / np.trace(sigma).real)
    min_eig = fixed.flags.cp.certificate
    tp_res = float(np.linalg.norm(channels.apply_adjoint(fixed, np.eye(2)) - np.eye(2)))
    assert min_eig >= -1e-10
    assert tp_res <= 1e-12
    print(f"PASS tp-completion: min eig {min_eig:.2e}, tp residual {tp_res:.2e}")


def test_10_isometry_supers_preserve_depolarizing_order():
    worst = np.inf
    for k in range(100):
        report = sc.is_r_subpreserving(haar_mixture_super((110, k)))
        worst = min(worst, report.min_eig)
    assert worst >= -1e-10
    print(f"PASS depolarizing-order: min eigenvalue {worst:.2e} over 100 supermaps")


def test_11_entropy_gain_positive_maps():
    worst = np.inf
    for k in range(200):
        rng = np.random.default_rng((111, k))
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        base = channels.random_channel(din, dout, int(rng.integers(2, 5)), (111, k, 1))
        scale = float(rng.uniform(0.5, 2.0))
        f = channels.channel_from_kraus([np.sqrt(scale) * op for op in base.kraus])
        rec = bd.entropy_gain_positive_map(f, rand_density(rng, din))
        worst = min(worst, rec.slack)
    assert worst >= -1e-8
    print(f"PASS entropy-gain: min slack {worst:.2e} over 200 maps")


def test_12_optimizer_dominates_dense_grid():
    worst = np.inf
    for k in range(10):
        n = channels.random_channel(2, 2, 4, (112, k, 0))
        m = channels.random_channel(2, 2, 4, (112, k, 1))
        opts = dv.OptimizerOpts(restarts=8, max_evals=2000, seed=k)
        res = dv.channel_divergence(n, m, opts)
        plain = res.value
        amps, values = dense_grid(n, m, np.random.default_rng((k, 0xFEED)))
        direct = [dv.divergence_at(n, m, dv.pure_bipartite(a)) for a in amps[:50]]
        np.testing.assert_allclose(values[:50], direct, rtol=0, atol=1e-12)
        grid = max(
            dv.channel_divergence(n, m, replace(opts, restarts=1, max_evals=2)).value,
            values.max(),
        )
        # The certified upper end bounds every grid point too.
        assert grid <= res.upper + 1e-12
        worst = min(worst, plain - grid)
    assert worst >= -1e-6
    print(f"PASS optimizer-vs-grid: min margin {worst:.2e} over 10 pairs")


def test_13_replacer_supermap_witness_bound():
    n0 = channels.random_channel(2, 2, 4, 113)
    theta = sc.extend_super_with_identity(bd.replacer_supermap(n0, 2, 2), 2)
    gamma = sc.extend_super_with_identity(bd.depolarizing_supermap((2, 2, 2, 2)), 2)
    base = dv.channel_divergence(n0, channels.depolarizing_r(2, 2), LIGHT)
    product = dv.pure_bipartite(
        np.kron(dv.maximally_entangled(2).a_psi, base.optimizer_state.a_psi)
    )
    worst = np.inf
    for k in range(20):
        witness = channels.random_channel(4, 4, 2, (113, k))
        n, m = sc.apply_super(theta, witness), sc.apply_super(gamma, witness)
        value = dv.channel_divergence(
            n, m, dv.OptimizerOpts(restarts=1, max_evals=50, seed=k)
        ).value
        assert value >= dv.divergence_at(n, m, product) - 1e-9
        worst = min(worst, value - (base.value - 1.0))
    assert worst >= -1e-3
    print(f"PASS replacer-witness-bound: min margin {worst:.2e} over 20 witnesses")
