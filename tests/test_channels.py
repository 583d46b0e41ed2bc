import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan import channels, linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def rand_herm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def rand_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    p = g @ g.conj().T
    return p / np.trace(p).real


def test_identity_channel():
    n = channels.channel_from_kraus([np.eye(2)])
    assert n.flags.tp.status == "yes"
    omega = np.array([1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(n.choi, np.outer(omega, omega), atol=1e-14)
    rng = np.random.default_rng(0)
    rho = rand_state(rng, 2)
    np.testing.assert_allclose(channels.apply(n, rho), rho, atol=1e-14)


def test_trace_shrinking_and_growing_kraus_pair():
    n = channels.channel_from_kraus(
        [np.sqrt(2.0) * np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) / np.sqrt(2.0)]
    )
    assert n.flags.cp.status == "yes"
    assert n.flags.tp.status == "no"


def test_unitary_kraus_channel():
    n = channels.channel_from_kraus([PAULI["X"]])
    assert n.flags.tp.status == "yes"
    assert n.flags.unital.status == "yes"


def test_kraus_shape_mismatch():
    with pytest.raises(ValueError):
        channels.channel_from_kraus([np.eye(2), np.eye(3)])


def test_apply_depolarizing_and_replacer():
    r = channels.depolarizing_r(2, 2)
    np.testing.assert_allclose(channels.apply(r, np.diag([1.0, 0.0])), np.eye(2), atol=1e-12)
    rng = np.random.default_rng(1)
    sigma0 = rand_state(rng, 3)
    rep = channels.replacer_channel(sigma0, 2)
    np.testing.assert_allclose(channels.apply(rep, rand_state(rng, 2)), sigma0, atol=1e-12)


def test_apply_dimension_mismatch():
    n = channels.channel_from_kraus([np.eye(2)])
    with pytest.raises(ValueError):
        channels.apply(n, np.eye(3))


def test_adjoint_examples():
    rng = np.random.default_rng(2)
    u = channels.haar_isometry(3, 3, rng)
    n = channels.channel_from_kraus([u])
    rho = rand_state(rng, 3)
    np.testing.assert_allclose(
        channels.apply_adjoint(n, rho), u.conj().T @ rho @ u, atol=1e-12
    )
    r = channels.depolarizing_r(2, 3)
    y = rand_herm(rng, 3)
    np.testing.assert_allclose(
        channels.apply_adjoint(r, y), np.trace(y) * np.eye(2), atol=1e-12
    )
    ident = channels.channel_from_kraus([np.eye(2)])
    np.testing.assert_allclose(channels.adjoint(ident).choi, ident.choi, atol=1e-14)


def test_adjoint_duality_on_basis():
    n = channels.random_channel(2, 3, 2, seed=5)
    nadj = channels.adjoint(n)
    for b in range(3):
        for c in range(3):
            p = np.zeros((3, 3), dtype=complex)
            p[b, c] = 1.0
            for i in range(2):
                for j in range(2):
                    q = np.zeros((2, 2), dtype=complex)
                    q[i, j] = 1.0
                    lhs = np.trace(p.conj().T @ channels.apply(n, q))
                    rhs = np.trace(channels.apply(nadj, p).conj().T @ q)
                    assert abs(lhs - rhs) < 1e-9


def test_adjoint_of_tp_is_unital():
    n = channels.random_channel(3, 2, 4, seed=6)
    assert channels.adjoint(n).flags.unital.status == "yes"


def test_depolarizing_choi_and_tilde():
    r = channels.depolarizing_r(2, 2)
    np.testing.assert_allclose(r.choi, np.eye(4), atol=1e-14)
    assert r.flags.tp.status == "no"
    rt = channels.depolarizing_r_tilde(2, 2)
    assert channels.is_cptp(rt)
    r1d = channels.depolarizing_r(1, 3)
    np.testing.assert_allclose(
        channels.apply(r1d, np.array([[1.0]])), np.eye(3), atol=1e-14
    )


def test_thermal_map():
    h = np.diag([0.0, 1.0])
    beta0 = channels.thermal_map(channels.ThermalMap(h, 0.0))
    np.testing.assert_allclose(beta0.choi, channels.depolarizing_r(2, 2).choi, atol=1e-12)
    beta1 = channels.thermal_map(channels.ThermalMap(h, 1.0))
    tau = channels.apply(beta1, np.diag([0.3, 0.7]))
    np.testing.assert_allclose(tau, np.diag([1.0, np.exp(-1.0)]), atol=1e-12)
    hz = channels.thermal_map(channels.ThermalMap(np.zeros((2, 2)), 3.7))
    np.testing.assert_allclose(hz.choi, channels.depolarizing_r(2, 2).choi, atol=1e-12)
    with pytest.raises(ValueError):
        channels.thermal_map(channels.ThermalMap(h, -0.1))


def test_telecov_twirl_bell_diagonal():
    spec = channels.weyl_heisenberg_spec(2)
    base = channels.random_channel(2, 2, 3, seed=7)
    tw = channels.telecov_channel(spec, base)
    assert channels.covariance_residual(spec, tw) <= 1e-8
    omega = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell = np.column_stack(
        [np.kron(np.eye(2), PAULI[p]) @ omega for p in ("I", "X", "Y", "Z")]
    )
    in_bell = bell.conj().T @ tw.choi @ bell
    off = in_bell - np.diag(np.diag(in_bell))
    assert np.linalg.norm(off) < 1e-8


def test_telecov_twirl_fixed_points():
    spec = channels.weyl_heisenberg_spec(2)
    ident = channels.channel_from_kraus([np.eye(2)])
    np.testing.assert_allclose(channels.telecov_channel(spec, ident).choi, ident.choi, atol=1e-10)
    rt = channels.depolarizing_r_tilde(2, 2)
    np.testing.assert_allclose(channels.telecov_channel(spec, rt).choi, rt.choi, atol=1e-10)


def test_telecov_spec_validation():
    bad = channels.TeleCovariantSpec(
        (np.eye(2),), (np.eye(2),)
    )
    with pytest.raises(ValueError):
        channels.check_telecov_spec(bad)


def test_random_channel_contracts():
    u = channels.random_channel(3, 3, 1, seed=11)
    assert u.flags.unital.status == "yes"
    assert channels.is_cptp(u)
    n1 = channels.random_channel(2, 4, 3, seed=12)
    n2 = channels.random_channel(2, 4, 3, seed=12)
    assert channels.is_cptp(n1)
    np.testing.assert_allclose(n1.choi, n2.choi, atol=0)


def test_channel_inner_product():
    ident = channels.channel_from_kraus([np.eye(2)])
    r = channels.depolarizing_r(2, 2)
    assert abs(channels.channel_inner_product(ident, ident) - 4.0) < 1e-12
    assert abs(channels.channel_inner_product(ident, r) - 2.0) < 1e-12
    n = channels.random_channel(2, 2, 2, seed=13)
    val = channels.channel_inner_product(n, n)
    assert abs(val.imag) < 1e-12 and val.real >= 0


def test_compose_and_tensor():
    n = channels.random_channel(2, 3, 2, seed=14)
    ident = channels.channel_from_kraus([np.eye(3)])
    np.testing.assert_allclose(channels.compose(ident, n).choi, n.choi, atol=1e-10)
    m = channels.random_channel(3, 2, 2, seed=15)
    assert channels.is_cptp(channels.tensor_channels(n, m))
    rng = np.random.default_rng(16)
    u = channels.channel_from_kraus([channels.haar_isometry(2, 2, rng)])
    rt = channels.depolarizing_r_tilde(2, 2)
    np.testing.assert_allclose(channels.compose(rt, u).choi, rt.choi, atol=1e-10)


def test_compose_matches_sequential_apply():
    n1 = channels.random_channel(2, 3, 2, seed=17)
    n2 = channels.random_channel(3, 2, 3, seed=18)
    comp = channels.compose(n2, n1)
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = rand_herm(rng, 2)
        np.testing.assert_allclose(
            channels.apply(comp, x), channels.apply(n2, channels.apply(n1, x)), atol=1e-10
        )


def compose_by_basis_loop(n2, n1):
    """Reference Choi of n2 o n1, sum_ij e_ij (x) n2(n1(e_ij)), one basis matrix at a time."""
    din, dout = n1.dim_in, n2.dim_out
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for j in range(din):
            eij = np.zeros((din, din), dtype=complex)
            eij[i, j] = 1.0
            choi += np.kron(eij, channels.apply(n2, channels.apply(n1, eij)))
    return choi


def random_map(seed, dim_in, dim_out, cp):
    """A random CPTP channel, or a random Hermiticity-preserving map that is not CP."""
    if cp:
        return channels.random_channel(dim_in, dim_out, dim_in, seed)
    choi = rand_herm(np.random.default_rng(seed), dim_in * dim_out)
    return channels.channel_from_choi(choi, dim_in, dim_out)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    dims=st.tuples(*[st.integers(1, 3)] * 3),
    cps=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**16),
)
def test_compose_matches_basis_loop(dims, cps, seed):
    din, dmid, dout = dims
    n1 = random_map(seed, din, dmid, cps[0])
    n2 = random_map(seed + 1, dmid, dout, cps[1])
    comp = channels.compose(n2, n1)
    np.testing.assert_allclose(comp.choi, compose_by_basis_loop(n2, n1), rtol=0, atol=1e-12)
    assert (comp.kraus is not None) == (n1.kraus is not None and n2.kraus is not None)


def test_tensor_choi_reshuffle():
    n = channels.random_channel(2, 2, 2, seed=20)
    m = channels.random_channel(3, 2, 2, seed=21)
    nm = channels.tensor_channels(n, m)
    big = np.kron(n.choi, m.choi)
    expect = linalg.permute_systems(big, (2, 2, 3, 2), (0, 2, 1, 3))
    np.testing.assert_allclose(nm.choi, expect, atol=1e-12)
    rng = np.random.default_rng(22)
    a, b = rand_state(rng, 2), rand_state(rng, 3)
    np.testing.assert_allclose(
        channels.apply(nm, np.kron(a, b)),
        np.kron(channels.apply(n, a), channels.apply(m, b)),
        atol=1e-10,
    )


def test_choi_kraus_round_trip():
    for seed in range(3):
        n = channels.random_channel(2, 3, 2, seed=seed)
        kraus = channels.kraus_from_choi(n.choi, 2, 3)
        rebuilt = channels.channel_from_kraus(kraus)
        np.testing.assert_allclose(rebuilt.choi, n.choi, atol=1e-10)


def test_apply_kraus_equals_apply_choi():
    rng = np.random.default_rng(23)
    for seed in range(3):
        n = channels.random_channel(3, 2, 2, seed=seed)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        via_kraus = sum(k @ x @ k.conj().T for k in n.kraus)
        np.testing.assert_allclose(channels.apply(n, x), via_kraus, atol=1e-10)


def test_tp_channel_preserves_trace():
    rng = np.random.default_rng(24)
    n = channels.random_channel(4, 3, 2, seed=25)
    for _ in range(5):
        rho = rand_state(rng, 4)
        assert abs(np.trace(channels.apply(n, rho)) - 1.0) < 1e-10


def test_channel_json_round_trip():
    n = channels.random_channel(2, 3, 2, seed=26)
    enc = json.loads(json.dumps(channels.channel_to_json(n)))
    back = channels.channel_from_json(enc)
    np.testing.assert_allclose(back.choi, n.choi, atol=1e-10)
    choi_only = channels.Channel(2, 3, n.choi)
    enc2 = json.loads(json.dumps(channels.channel_to_json(choi_only)))
    back2 = channels.channel_from_json(enc2)
    np.testing.assert_allclose(back2.choi, n.choi, atol=1e-12)
    with pytest.raises(ValueError):
        channels.channel_from_json({"dim_in": 2, "dim_out": 2})
