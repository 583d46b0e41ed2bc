"""Dense grids of divergence_at values, evaluated with stacked eigh.

Shared by the tests that check the ascent against a brute-force grid.
"""

import numpy as np

from superchan import divergences as dv, linalg


def hermitian_part(x):
    return (x + np.swapaxes(x.conj(), -1, -2)) / 2


def stacked_rel_entropy(rho, sigma):
    """rel_entropy over a stack of pairs, by its rule.

    sigma's support is its eigenvalues above linalg.SUPPORT_CUTOFF; a pair is
    +inf when rho has more than dv.LEAK_TOL weight off that support.
    """
    w = np.linalg.eigvalsh(hermitian_part(rho))
    mu, u = np.linalg.eigh(hermitian_part(sigma))
    weight = np.einsum("pki,pkl,pli->pi", u.conj(), rho, u).real
    on = mu > linalg.SUPPORT_CUTOFF
    leak = np.where(on, 0.0, weight).sum(axis=1)
    first = np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0).sum(axis=1)
    second = np.where(on, weight * np.log2(np.where(on, mu, 1.0)), 0.0).sum(axis=1)
    return np.where(leak > dv.LEAK_TOL, np.inf, first - second)


def dense_grid(n, m, rng, points=10_000):
    """Gaussian amplitudes drawn from rng and divergence_at at each.

    The amplitudes are drawn in the order of `points` successive pairs of
    normal(size=(dim, dim)) calls; with |psi> = (A (x) 1) sum_i |ii>, the
    states are (A (x) 1) C (A (x) 1)^dag for the Choi operators C of n and m.
    """
    dim = n.dim_in
    z = rng.normal(size=(points, 2, dim, dim))
    amps = z[:, 0] + 1j * z[:, 1]
    amps /= np.linalg.norm(amps, axis=(1, 2), keepdims=True)
    lift = np.einsum("pij,ab->piajb", amps, np.eye(n.dim_out))
    lift = lift.reshape(points, dim * n.dim_out, dim * n.dim_out)
    lift_dag = np.swapaxes(lift.conj(), 1, 2)
    return amps, stacked_rel_entropy(lift @ n.choi @ lift_dag, lift @ m.choi @ lift_dag)
