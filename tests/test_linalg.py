import json
import warnings

import numpy as np
import pytest

from superchan import channels, linalg


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_check_hermitian_rejects_non_finite(bad):
    for pos in ((0, 0), (0, 1)):
        m = np.eye(2, dtype=complex)
        m[pos] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                linalg.check_hermitian(m)


def test_herm_eig_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rand_herm(rng, 5)
        w, _ = linalg.herm_eig(m)
        assert abs(w.sum() - np.trace(m).real) < 1e-10


def mat_fn(p, f):
    """mat_fn_psd of the matrix p, decomposed here."""
    return linalg.mat_fn_psd(*linalg.herm_eig(p), f)


def test_mat_fn_psd_examples():
    np.testing.assert_allclose(mat_fn(np.eye(3), np.log2), np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(
        mat_fn(np.diag([4.0, 9.0]), lambda w: w**0.5), np.diag([2.0, 3.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        mat_fn(np.diag([4.0, 0.0]), lambda w: 1.0 / np.sqrt(w)), np.diag([0.5, 0.0]), atol=1e-12
    )


def test_mat_fn_psd_rejects_negative():
    with pytest.raises(ValueError):
        mat_fn(np.diag([1.0, -1e-3]), np.sqrt)


def test_mat_fn_psd_pow_one_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rand_psd(rng, 4)
        np.testing.assert_allclose(mat_fn(p, lambda w: w**1.0), p, atol=1e-10)


def test_mat_fn_psd_exp_log_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rand_psd(rng, 3) + 0.5 * np.eye(3)
        w, v = np.linalg.eigh(mat_fn(p, np.log2))
        back = (v * np.exp2(w)) @ v.conj().T
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


def test_permute_systems():
    rng = np.random.default_rng(6)
    a, b, c = rand_herm(rng, 2), rand_herm(rng, 3), rand_herm(rng, 4)
    x = np.kron(np.kron(a, b), c)
    out = linalg.permute_systems(x, (2, 3, 4), (2, 0, 1))
    np.testing.assert_allclose(out, np.kron(np.kron(c, a), b), atol=1e-12)


def rand_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def loop_kron(a, b):
    """np.kron of each pair of matrices in two broadcastable stacks, one call per pair."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    out = np.empty(lead + (rows, cols), dtype=np.result_type(a, b))
    for idx in np.ndindex(lead):
        out[idx] = np.kron(a[idx], b[idx])
    return out


def _kron_cases():
    rng = np.random.default_rng(30)
    real, cplx = rng.normal(size=(2, 2)), rand_complex(rng, 3, 3)
    # Signed zeros as well: both routes must multiply the same two factors.
    real[0, 1], cplx[1, 2] = -0.0, complex(0.0, -0.0)
    u, v = rand_complex(rng, 4, 2, 2), rand_complex(rng, 4, 3, 3)
    w = rand_complex(rng, 9, 3, 3)
    return {
        "real-complex": (real, cplx),
        "complex-real": (cplx, real),
        "real-real": (real, rng.normal(size=(3, 2))),
        "non-square": (rand_complex(rng, 2, 3), rand_complex(rng, 4, 1)),
        "one-by-one": (np.array([[2.5]]), np.array([[-1.0 + 0.5j]])),
        "one-by-one-left": (np.array([[1j]]), rand_complex(rng, 3, 2)),
        "list": ([[1, 2], [3, 4]], np.eye(2)),
        # telecov_channel: U_g^T (x) V_g^dag and U_g^* (x) V_g over one group.
        "stack-stack": (np.swapaxes(u, 1, 2), np.swapaxes(v.conj(), 1, 2)),
        # covariance_residual: U_g (x) 1 and 1 (x) V_g.
        "stack-eye": (u.conj(), np.eye(3)),
        "eye-stack": (np.eye(2), v),
        # tensor_specs: every pair of two groups, u1_i (x) u2_j at (i, j).
        "outer-stacks": (u[:, None], w[None, :]),
    }


@pytest.mark.parametrize("case", sorted(_kron_cases()))
def test_kron_is_bit_identical_to_np_kron(case):
    a, b = _kron_cases()[case]
    out = linalg.kron(a, b)
    want = loop_kron(np.asarray(a), np.asarray(b))
    assert out.dtype == want.dtype and out.shape == want.shape
    assert np.array_equal(out, want)
    assert out.tobytes() == want.tobytes()


def _eigh_cases():
    rng = np.random.default_rng(31)
    cases = {}
    for d in (1, 2, 3, 4, 6, 12, 16):
        cases[f"complex-{d}"] = rand_herm(rng, d)
        real = rng.normal(size=(d, d))
        cases[f"real-{d}"] = (real + real.T) / 2
    cases["zero"] = np.zeros((4, 4), dtype=complex)
    # Eigenvalues 1, 1, 1, 3, 3, -2 in a random unitary basis.
    u, _ = np.linalg.qr(rand_complex(rng, 6, 6))
    cases["degenerate"] = (u * [1.0, 1.0, 1.0, 3.0, 3.0, -2.0]) @ u.conj().T
    # The Choi operator of a qubit channel with two Kraus operators: rank 2 of 4.
    cases["rank-deficient-choi"] = channels.random_channel(2, 2, 2, seed=5).choi
    return cases


@pytest.mark.parametrize("case", sorted(_eigh_cases()))
def test_eigh_kernels_are_bit_identical_to_numpy(case):
    a = _eigh_cases()[case]
    w, v = linalg.eigh(a)
    want_w, want_v = np.linalg.eigh(a)
    assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    vals = linalg.eigvalsh(a)
    want_vals = np.linalg.eigvalsh(a)
    assert vals.dtype == want_vals.dtype
    assert np.array_equal(vals, want_vals)


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigh_kernels_raise_on_nan(dtype):
    # A NaN in the lower triangle, the one the kernels read.  numpy's
    # invalid-value warning from the failed LAPACK call is expected.
    a = np.eye(3, dtype=dtype)
    a[2, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            linalg.eigh(a)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            linalg.eigvalsh(a)


def test_norms_examples():
    assert abs(linalg.trace_norm(np.eye(3)) - 3.0) < 1e-12
    assert linalg.trace_norm(np.zeros((2, 2))) == 0.0
    assert abs(linalg.trace_norm(np.diag([3.0, -4.0])) - 7.0) < 1e-12


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
    ok = linalg.psd_check(linalg.herm_eigvals(np.eye(2)))
    assert ok.is_psd and abs(ok.min_eig - 1.0) < 1e-12
    assert not linalg.psd_check(linalg.herm_eigvals(np.diag([1.0, -1e-3]))).is_psd
    assert linalg.psd_check(linalg.herm_eigvals(np.diag([1.0, -1e-12]))).is_psd


def test_support_projector():
    p = np.diag([0.5, 0.0, 2.0])
    proj = linalg.support_projector(*linalg.herm_eig(p))
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
    for bad in (np.diag([0.6, 0.6]), np.diag([1.5, -0.5])):
        with pytest.raises(ValueError):
            linalg.check_density(bad, linalg.herm_eigvals(bad))
    good = np.diag([0.5, 0.5])
    linalg.check_density(good, linalg.herm_eigvals(good))
