import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superchan import channels, cli, divergences as dv, linalg, recovery as rc, superchannels as sc

from telecov_reference import tensor_specs

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


@pytest.mark.parametrize(
    "kraus, named",
    [
        pytest.param([], "nonempty", id="empty-list"),
        pytest.param(np.zeros((0, 2, 2)), "nonempty", id="empty-stack"),
        pytest.param([np.eye(2), np.ones((2, 3))], "inconsistent Kraus shapes", id="ragged"),
        pytest.param(np.eye(2), "(r, dim_out, dim_in)", id="2-d"),
        pytest.param(np.eye(2)[None, None], "(r, dim_out, dim_in)", id="4-d"),
    ],
)
def test_channel_from_kraus_rejects_what_is_not_a_stack(kraus, named):
    with pytest.raises(ValueError) as err:
        channels.channel_from_kraus(kraus)
    assert named in str(err.value)


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


def loop_covariance_residual(spec, n):
    """covariance_residual by one np.kron pair per group element (reference route)."""
    res = 0.0
    for u, v in zip(spec.reps_in, spec.reps_out):
        lhs = np.kron(u.T, np.eye(n.dim_out)) @ n.choi @ np.kron(u.conj(), np.eye(n.dim_out))
        rhs = np.kron(np.eye(n.dim_in), v) @ n.choi @ np.kron(np.eye(n.dim_in), v.conj().T)
        res = max(res, float(np.linalg.norm(lhs - rhs)))
    return res


def loop_twirl(spec, base):
    """Choi of the group average of V_g^dag o base o U_g, one element at a time (reference route)."""
    choi = np.zeros_like(base.choi)
    for u, v in zip(spec.reps_in, spec.reps_out):
        twisted = np.kron(u.T, v.conj().T) @ base.choi @ np.kron(u.conj(), v)
        choi += twisted / spec.group_size
    return choi


def wh_product_spec():
    s2 = channels.weyl_heisenberg_spec(2)
    return tensor_specs(s2, s2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    group=st.sampled_from(("wh2", "wh3", "wh2xwh2")),
    env=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_batched_telecov_matches_loop_references(group, env, seed):
    spec = wh_product_spec() if group == "wh2xwh2" else channels.weyl_heisenberg_spec(int(group[2]))
    d = len(spec.reps_in[0])
    assert spec.group_size == d * d
    base = channels.random_channel(d, d, env, seed)
    tw = channels.telecov_channel(spec, base)
    assert np.abs(tw.choi - loop_twirl(spec, base)).max() <= 1e-14
    for n in (base, tw):
        assert abs(channels.covariance_residual(spec, n) - loop_covariance_residual(spec, n)) <= 1e-12


def test_tensor_specs_order_matches_elementwise_kron():
    s2, s3 = channels.weyl_heisenberg_spec(2), channels.weyl_heisenberg_spec(3)
    prod = tensor_specs(s2, s3)
    want = [np.kron(u, w) for u in s2.reps_in for w in s3.reps_in]
    assert prod.group_size == 36
    np.testing.assert_array_equal(prod.reps_in, want)
    np.testing.assert_array_equal(prod.reps_out, want)


def test_weyl_heisenberg_spec_is_built_once_and_read_only():
    spec = channels.weyl_heisenberg_spec(3)
    assert channels.weyl_heisenberg_spec(3) is spec
    with pytest.raises(ValueError):
        spec.reps_in[0][0, 0] = 2.0
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    for a in range(3):
        for b in range(3):
            want = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            np.testing.assert_allclose(spec.reps_in[3 * a + b], want, rtol=0, atol=1e-15)


def test_tuple_specs_are_accepted():
    spec = channels.weyl_heisenberg_spec(2)
    as_tuples = channels.TeleCovariantSpec(tuple(spec.reps_in), tuple(spec.reps_out))
    base = channels.random_channel(2, 2, 2, seed=3)
    np.testing.assert_array_equal(
        channels.telecov_channel(as_tuples, base).choi, channels.telecov_channel(spec, base).choi
    )


BAD_SPECS = {
    "dimension": (channels.weyl_heisenberg_spec(3), r"reps_in act on dimension 3 .* dim_in is 2"),
    "output-dimension": (
        channels.TeleCovariantSpec(channels.weyl_heisenberg_spec(2).reps_in, (np.eye(3),) * 4),
        r"reps_out act on dimension 3 .* dim_out is 2",
    ),
    "ragged": (
        channels.TeleCovariantSpec((np.eye(2), np.eye(3)), (np.eye(2), np.eye(2))),
        r"reps_in are ragged: shapes \(2, 2\) and \(3, 3\)",
    ),
    "not-square": (
        channels.TeleCovariantSpec((np.eye(2, 3),) * 2, (np.eye(2),) * 2),
        r"reps_in must be square matrices, got shape \(2, 3\)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
@pytest.mark.parametrize("fn", (channels.covariance_residual, channels.telecov_channel))
def test_bad_spec_fails_at_the_boundary(fn, case):
    spec, message = BAD_SPECS[case]
    n = channels.random_channel(2, 2, 2, seed=5)
    with pytest.raises(ValueError, match=message):
        fn(spec, n)


def test_random_channel_contracts():
    u = channels.random_channel(3, 3, 1, seed=11)
    assert u.flags.unital.status == "yes"
    assert channels.is_cptp(u)
    n1 = channels.random_channel(2, 4, 3, seed=12)
    n2 = channels.random_channel(2, 4, 3, seed=12)
    assert channels.is_cptp(n1)
    np.testing.assert_allclose(n1.choi, n2.choi, atol=0)


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


def certify_flags_by_partial_traces(choi, dim_in, dim_out):
    """certify_flags with one partial_trace and one identity per marginal (reference route)."""
    cp_chk = linalg.psd_check(linalg.eigvalsh((choi + choi.conj().T) / 2))
    flags = [channels.Flag("yes" if cp_chk.is_psd else "no", cp_chk.min_eig)]
    for keep, dim in (("first", dim_in), ("second", dim_out)):
        marginal = linalg.partial_trace(choi, (dim_in, dim_out), keep)
        res = float(np.linalg.norm(marginal - np.eye(dim)))
        flags.append(channels.Flag("yes" if res <= channels.TP_TOL else "no", res))
    return channels.ChannelFlags(*flags)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    kind=st.sampled_from(["cptp", "hermitian", "real", "near-tp"]),
    seed=st.integers(0, 2**16),
)
def test_certify_flags_match_partial_trace_route_bit_for_bit(dims, kind, seed):
    din, dout = dims
    choi = random_map(seed, din, dout, kind != "hermitian").choi
    if kind == "real":
        choi = choi.real
    if kind == "near-tp":
        choi = choi + 1e-10 * np.eye(din * dout) / dout
    before = choi.copy()
    flags = channels.certify_flags(choi, din, dout)
    want = certify_flags_by_partial_traces(choi, din, dout)
    # Tuples of floats compare bit for bit; no certificate here is NaN.
    assert flags == want
    assert all(type(a.certificate) is type(b.certificate) for a, b in zip(flags, want))
    np.testing.assert_array_equal(choi, before)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    cp=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_channel_from_choi_matches_separate_certify_and_kraus(dims, cp, seed):
    din, dout = dims
    choi = random_map(seed, din, dout, cp).choi
    ch = channels.channel_from_choi(choi, din, dout)
    assert ch.flags == channels.certify_flags(choi, din, dout)
    if ch.flags.cp.status == "yes":
        kraus = channels.kraus_from_choi(choi, din, dout)
        assert len(ch.kraus) == len(kraus)
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, kraus))
    else:
        assert ch.kraus is None


@pytest.fixture
def decompositions(monkeypatch):
    """Every linalg.eigh and linalg.eigvalsh call while the test runs, as (name, shape)."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(linalg, name)

        def counting(x, _name=name, _original=original):
            calls.append((_name, x.shape))
            return _original(x)

        # The modules that import the kernel by name hold their own reference.
        for module in (linalg, channels, dv):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_channel_certificates_are_computed_on_first_read(decompositions):
    choi = channels.random_channel(2, 3, 2, seed=5).choi
    given = channels.random_channel(2, 2, 2, seed=5).kraus
    pre = channels.random_channel(2, 2, 2, seed=6)
    post = channels.random_channel(2, 2, 2, seed=7)
    theta = sc.super_from_dilation(pre, post)
    mes = dv.maximally_entangled(2)
    n = channels.random_channel(2, 2, 2, seed=8)
    assert n.flags.cp.status == "yes"
    sigma = np.diag([0.3, 0.7]).astype(complex)
    decompositions.clear()

    # Construction decomposes nothing, the 16x16 generalized_rep included.
    from_choi = channels.channel_from_choi(choi, 2, 3)
    from_kraus = channels.channel_from_kraus(given)
    sc.generalized_rep(theta, mes, mes)
    assert decompositions == []
    # The flags take eigenvalues only; Kraus operators from the Choi take one
    # eigh on first read, and second reads take nothing.
    assert from_choi.flags.cp.status == "yes"
    assert decompositions == [("eigvalsh", (6, 6))]
    kraus = from_choi.kraus
    assert decompositions == [("eigvalsh", (6, 6)), ("eigh", (6, 6))]
    assert from_choi.kraus is kraus and from_choi.flags is from_choi.flags
    assert len(decompositions) == 2
    # A Kraus-built channel returns the stack it was given.
    decompositions.clear()
    assert from_kraus.kraus is from_kraus.given_kraus
    assert all(np.array_equal(a, b) for a, b in zip(from_kraus.kraus, given))
    assert decompositions == []
    # petz decomposes sigma and n(sigma) once each, and its channel not at all.
    rc.petz(sigma, n)
    assert decompositions == [("eigh", (2, 2)), ("eigh", (2, 2))]


def test_refined_dpi_decomposes_the_rep_choi_once_each(decompositions):
    # The superchannel check certifies the 16x16 rep Choi; at the default
    # maximally entangled witnesses generalized_rep returns that channel, and
    # its trace correction, within rounding, leaves tp_fix_map the same one,
    # so the flags are not certified again.  universal_recovery reads the
    # Kraus operators the dilation built the rep from.
    cli._suite_refined_dpi(0, 0, cli.RunConfig())
    rep = [call for call in decompositions if call[1] == (16, 16)]
    assert rep == [("eigvalsh", (16, 16))]


def test_superchannel_certificates_are_computed_on_first_read(decompositions):
    pre = channels.random_channel(2, 2, 2, seed=6)
    post = channels.random_channel(2, 2, 2, seed=7)
    assert channels.is_cptp(pre) and channels.is_cptp(post)
    decompositions.clear()

    # Construction decomposes nothing, the 256x256 identity extension included.
    theta = sc.super_from_dilation(pre, post)
    from_rep = sc.super_from_rep(theta.rep.choi, theta.dims)
    sc.extend_super_with_identity(from_rep, 2)
    assert decompositions == []
    # The flags take the eigenvalues of the rep Choi once; second reads take
    # nothing.
    for _ in range(2):
        assert from_rep.flags.completely_cp_preserving.status == "yes"
        assert from_rep.flags.tp_preserving.status == "yes"
    assert decompositions == [("eigvalsh", (16, 16))]


def test_super_div_decomposes_no_extended_rep(decompositions):
    # No command reads the flags of the two 256x256 identity-extended
    # supermaps that a super-div trial builds, so neither rep Choi is
    # decomposed.
    cli._suite_super_div(0, 0, cli.RunConfig())
    assert decompositions
    assert all(shape != (256, 256) for _, shape in decompositions)


def _from_choi():
    choi = channels.random_channel(2, 3, 2, seed=5).choi
    return lambda: channels.channel_from_choi(choi, 2, 3)


def _from_kraus():
    kraus = channels.random_channel(2, 2, 2, seed=5).kraus
    return lambda: channels.channel_from_kraus(kraus)


def _generalized_rep():
    pre = channels.random_channel(2, 2, 2, seed=6)
    post = channels.random_channel(2, 2, 2, seed=7)
    theta = sc.super_from_dilation(pre, post)
    # Every command reads the supermap's flags before it conjugates the rep.
    assert theta.flags.completely_cp_preserving.status == "yes"
    mes = dv.maximally_entangled(2)
    return lambda: sc.generalized_rep(theta, mes, mes)


def _petz():
    n = channels.random_channel(2, 2, 2, seed=8)
    assert n.flags.cp.status == "yes"
    sigma = np.diag([0.3, 0.7]).astype(complex)
    return lambda: rc.petz(sigma, n)


# Building a channel and reading its flags and Kraus operators twice takes
# each decomposition of its Choi at most once: eigenvalues for the flags, and
# one eigh for Kraus operators only when none were given.  generalized_rep at
# maximally entangled witnesses returns the rep that reading the supermap's
# flags has already certified, with the Kraus stack of its dilation, so
# nothing is left.  petz first
# decomposes sigma (PSD gate, square root) and n(sigma) (inverse square root).
@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(
            _from_choi,
            [("eigvalsh", (6, 6)), ("eigh", (6, 6))],
            id="channel_from_choi",
        ),
        pytest.param(_from_kraus, [("eigvalsh", (4, 4))], id="channel_from_kraus"),
        pytest.param(_generalized_rep, [], id="generalized_rep"),
        pytest.param(
            _petz,
            [("eigh", (2, 2)), ("eigh", (2, 2)), ("eigvalsh", (4, 4))],
            id="petz",
        ),
    ],
)
def test_channel_from_choi_decomposes_the_choi_once(decompositions, build, expected):
    run = build()
    decompositions.clear()
    ch = run()
    for _ in range(2):
        assert ch.flags.cp.status == "yes"
        assert ch.kraus is not None
    assert decompositions == expected


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    env=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_choi_kraus_round_trip_property(dims, env, seed):
    din, dout = dims
    n = channels.random_channel(din, dout, max(env, -(-din // dout)), seed)
    rebuilt = channels.channel_from_kraus(channels.kraus_from_choi(n.choi, din, dout))
    np.testing.assert_allclose(rebuilt.choi, n.choi, rtol=0, atol=1e-12)


def loop_choi_from_kraus(kraus, dim_in, dim_out):
    """sum_k vec(K_k^T) vec(K_k^T)^dagger, one outer product per operator (reference route)."""
    choi = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=complex)
    for k in kraus:
        v = np.asarray(k, dtype=complex).T.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def loop_kraus_from_spectrum(w, v, dim_in, dim_out):
    """One Kraus operator per eigenvalue above SUPPORT_CUTOFF, ascending (reference route)."""
    return [
        np.sqrt(w[i]) * v[:, i].reshape(dim_in, dim_out).T
        for i in range(len(w))
        if w[i] > linalg.SUPPORT_CUTOFF
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    rank=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
@example(dims=(1, 1), rank=1, seed=0)
@example(dims=(1, 3), rank=2, seed=1)
@example(dims=(3, 2), rank=2, seed=2)
def test_stacked_kraus_and_choi_kernels_match_loop_references(dims, rank, seed):
    din, dout = dims
    rng = np.random.default_rng(seed)
    # Rank min(rank, din * dout): rank-deficient whenever rank < din * dout.
    g = rng.normal(size=(din * dout, rank)) + 1j * rng.normal(size=(din * dout, rank))
    choi = g @ g.conj().T
    choi /= np.trace(choi).real
    w, v = linalg.herm_eig(choi)
    stacked = channels.kraus_from_choi(choi, din, dout)
    loop = loop_kraus_from_spectrum(w, v, din, dout)
    assert len(loop) == min(rank, din * dout)
    assert stacked.shape == (len(loop), dout, din)
    for a, b in zip(stacked, loop):
        assert np.abs(a - b).max() <= 1e-14
    rebuilt = channels.channel_from_kraus(stacked).choi
    assert np.abs(rebuilt - loop_choi_from_kraus(loop, din, dout)).max() <= 1e-14
    # The constructors go through the same kernels.
    ch = channels.channel_from_choi(choi, din, dout)
    assert len(ch.kraus) == len(loop)
    assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, stacked))
    assert np.abs(channels.channel_from_kraus(loop).choi - rebuilt).max() <= 1e-14


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    env=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_every_constructor_holds_one_complex_kraus_stack(dims, env, seed):
    din, dout = dims
    n = channels.random_channel(din, dout, max(env, -(-din // dout)), seed)
    encoded = json.loads(json.dumps(channels.channel_to_json(n)))
    built = {
        "random_channel": n,
        "from a list": channels.channel_from_kraus(list(n.kraus)),
        "from a stack": channels.channel_from_kraus(n.kraus),
        "channel_from_choi": channels.channel_from_choi(n.choi, din, dout),
        "json codec": channels.channel_from_json(encoded),
        "depolarizing_r": channels.depolarizing_r(din, dout),
        "identity_channel": channels.identity_channel(din),
    }
    for name, ch in built.items():
        kraus = ch.kraus
        assert isinstance(kraus, np.ndarray) and kraus.dtype == complex, name
        assert kraus.shape[1:] == (ch.dim_out, ch.dim_in), name
        rebuilt = channels.channel_from_kraus(kraus).choi
        np.testing.assert_allclose(rebuilt, ch.choi, rtol=0, atol=1e-12, err_msg=name)
    # The same operators give the same Choi, bit for bit, whatever holds them.
    for name in ("from a list", "from a stack", "json codec"):
        assert np.array_equal(built[name].choi, n.choi), name


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
