import json

import numpy as np
import pytest

from superchan import linalg


def rand_herm(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def rand_psd(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T


def rand_state(rng, d):
    p = rand_psd(rng, d)
    return p / np.trace(p).real


def test_herm_eig_examples():
    w, _ = linalg.herm_eig(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])
    w, _ = linalg.herm_eig(np.diag([3 / 4, 1 / 4]))
    np.testing.assert_allclose(w, [1 / 4, 3 / 4])
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = linalg.herm_eig(pauli_x)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose((v * w) @ v.conj().T, pauli_x, atol=1e-14)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        linalg.herm_eig(np.ones((2, 3)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_check_hermitian_rejects_non_finite(bad):
    for pos in ((0, 0), (0, 1)):
        m = np.eye(2, dtype=complex)
        m[pos] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.check_hermitian(m)


def test_herm_eig_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rand_herm(rng, 5)
        w, _ = linalg.herm_eig(m)
        assert abs(w.sum() - np.trace(m).real) < 1e-10


def test_mat_fn_psd_examples():
    np.testing.assert_allclose(linalg.mat_log2_psd(np.eye(3)), np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(
        linalg.mat_pow_psd(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        linalg.mat_inv_sqrt_psd(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
    )


def test_mat_fn_psd_rejects_negative():
    with pytest.raises(ValueError):
        linalg.mat_sqrt_psd(np.diag([1.0, -1e-3]))


def test_mat_fn_psd_pow_one_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rand_psd(rng, 4)
        np.testing.assert_allclose(linalg.mat_pow_psd(p, 1.0), p, atol=1e-10)


def test_mat_fn_psd_exp_log_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rand_psd(rng, 3) + 0.5 * np.eye(3)
        back = linalg.mat_fn_psd(linalg.mat_log2_psd(p), "exp2")
        np.testing.assert_allclose(back, p, atol=1e-8)


def test_partial_trace_examples():
    rng = np.random.default_rng(3)
    rho = rand_state(rng, 2)
    sigma = rand_state(rng, 3)
    np.testing.assert_allclose(
        linalg.partial_trace(np.kron(rho, sigma), (2, 3), "first"), rho, atol=1e-12
    )
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    mes = np.outer(omega, omega.conj())
    np.testing.assert_allclose(
        linalg.partial_trace(mes, (2, 2), "second"), np.eye(2) / 2, atol=1e-12
    )
    x = rand_herm(rng, 6)
    tr_first = np.trace(linalg.partial_trace(x, (2, 3), "first"))
    assert abs(tr_first - np.trace(x)) < 1e-12


def test_partial_trace_linearity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rand_herm(rng, 6), rand_herm(rng, 6)
        lhs = linalg.partial_trace(2.0 * x + y, (3, 2), "second")
        rhs = 2.0 * linalg.partial_trace(x, (3, 2), "second") + linalg.partial_trace(
            y, (3, 2), "second"
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_multi():
    rng = np.random.default_rng(5)
    a, b, c = rand_state(rng, 2), rand_state(rng, 3), rand_state(rng, 2)
    x = linalg.tensor(a, b, c)
    np.testing.assert_allclose(linalg.partial_trace_multi(x, (2, 3, 2), (1,)), b, atol=1e-12)
    np.testing.assert_allclose(
        linalg.partial_trace_multi(x, (2, 3, 2), (0, 2)), np.kron(a, c), atol=1e-12
    )


def test_permute_systems():
    rng = np.random.default_rng(6)
    a, b, c = rand_herm(rng, 2), rand_herm(rng, 3), rand_herm(rng, 4)
    x = linalg.tensor(a, b, c)
    out = linalg.permute_systems(x, (2, 3, 4), (2, 0, 1))
    np.testing.assert_allclose(out, linalg.tensor(c, a, b), atol=1e-12)


def test_tensor_examples():
    np.testing.assert_allclose(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_allclose(
        linalg.tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
    )
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(linalg.tensor(x, np.array([[2.0]])), 2.0 * x)


def test_norms_examples():
    n = linalg.norms(np.eye(3))
    assert abs(n["trace_norm"] - 3.0) < 1e-12
    assert abs(n["op_norm"] - 1.0) < 1e-12
    n = linalg.norms(np.zeros((2, 2)))
    assert n["trace_norm"] == 0.0 and n["frobenius"] == 0.0 and n["op_norm"] == 0.0
    n = linalg.norms(np.diag([3.0, -4.0]))
    assert abs(n["trace_norm"] - 7.0) < 1e-12
    assert abs(n["frobenius"] - 5.0) < 1e-12
    assert abs(n["op_norm"] - 4.0) < 1e-12


def test_fidelity_examples():
    rng = np.random.default_rng(8)
    rho = rand_state(rng, 3)
    assert abs(linalg.fidelity(rho, rho) - 1.0) < 1e-9
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    assert linalg.fidelity(e0, e1) < 1e-12
    assert abs(linalg.fidelity(e0, np.eye(2) / 2) - 0.5) < 1e-12


def test_fidelity_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
        assert abs(linalg.fidelity(rho, sigma) - linalg.fidelity(sigma, rho)) < 1e-9


def test_psd_check():
    ok = linalg.psd_check(np.eye(2))
    assert ok.is_psd and abs(ok.min_eig - 1.0) < 1e-12
    assert not linalg.psd_check(np.diag([1.0, -1e-3]), tol=1e-9).is_psd
    assert linalg.psd_check(np.diag([1.0, -1e-12]), tol=1e-9).is_psd


def test_support_projector():
    p = np.diag([0.5, 0.0, 2.0])
    proj = linalg.support_projector(p)
    np.testing.assert_allclose(proj, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_matrix_json_round_trip_exact():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    enc = json.loads(json.dumps(linalg.matrix_to_json(x)))
    back = linalg.matrix_from_json(enc)
    assert np.array_equal(back, x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_matrix_from_json_rejects_non_finite(bad):
    enc = linalg.matrix_to_json(np.eye(2))
    enc["data"][1] = [0.0, bad]
    with pytest.raises(ValueError, match="non-finite"):
        linalg.matrix_from_json(enc)


def test_check_density():
    with pytest.raises(ValueError):
        linalg.check_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        linalg.check_density(np.diag([1.5, -0.5]))
    linalg.check_density(np.diag([0.5, 0.5]))
