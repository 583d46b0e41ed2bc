"""Closed forms for tele-covariant channels and replacers, kept as test references.

The package computes every channel entropy and divergence by the certified
ascent; these are the exact values that the tests compare it with.
"""

import numpy as np

from superchan import channels, divergences as dv, linalg


def telecov_entropy(n):
    """S(C_N / d) - log2 d, the channel entropy of a tele-covariant channel.

    It holds for any channel covariant under a group whose input
    representation is a one-design, such as a twirled channel or a tensor
    product of twirled channels; the caller vouches for that.
    """
    return dv.vn_entropy(n.normalized_choi) - np.log2(n.dim_in)


def telecov_divergence(n, m):
    """D(C_N / d || C_M / d), the divergence D[N||M] of two tele-covariant channels.

    It holds for channels covariant under one group whose input
    representation is a one-design, such as two channels twirled by the same
    spec; the caller vouches for that.
    """
    return dv.rel_entropy(n.normalized_choi, m.normalized_choi)


def replacer_divergence(n, m):
    """D(sigma_N || sigma_M), the divergence D[N||M] of replacers X -> tr(X) sigma.

    sigma = tr_in C / d_in; the caller vouches that both channels replace.
    """
    dims = (n.dim_in, n.dim_out)
    sigma_n, sigma_m = (linalg.partial_trace(c.choi, dims, "second") / n.dim_in for c in (n, m))
    return dv.rel_entropy(sigma_n, sigma_m)


def tensor_specs(s1, s2):
    """Product-group spec; element i * len(s2.reps_in) + j is u1_i (x) u2_j, and so for v."""
    (u1, v1), (u2, v2) = channels._group_stacks(s1), channels._group_stacks(s2)

    def product(a, b):
        out = linalg.kron(a[:, None], b[None, :])
        return out.reshape((-1,) + out.shape[2:])

    return channels.TeleCovariantSpec(product(u1, u2), product(v1, v2))
