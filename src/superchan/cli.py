"""Command-line front end: channel JSON I/O, entropy and divergence runs,
recovery maps, and seeded verification suites with machine-readable reports.

Reports are deterministic for a fixed config: every trial derives its RNG
from (suite seed, trial index), so worker-thread count never changes the
output bytes.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import (
    VerificationRecord,
    _record,
    depolarizing_supermap,
    entropy_gain_positive_map,
    record_to_json,
    replacer_supermap,
    verify_channel_dpi,
    verify_entropy_additivity,
    verify_entropy_gain_remainder,
    verify_entropy_gain_rsub,
    verify_refined_dpi,
)
from .channels import (
    COVARIANCE_TOL,
    Channel,
    ThermalMap,
    apply,
    apply_adjoint,
    channel_from_json,
    channel_from_kraus,
    channel_to_json,
    covariance_residual,
    depolarizing_r,
    haar_isometry,
    is_cptp,
    random_channel,
    telecov_channel,
    weyl_heisenberg_spec,
)
from .divergences import (
    OptimizerOpts,
    channel_divergence,
    channel_entropy,
    channel_entropy_beta,
    channel_entropy_telecov,
    maximally_entangled,
    pure_bipartite,
)
from .linalg import (
    check_density,
    dagger,
    fidelity,
    matrix_from_json,
    matrix_to_json,
    trace_norm,
)
from .recovery import Quadrature, petz, universal_recovery
from .superchannels import (
    apply_super,
    extend_super_with_identity,
    random_isometry_super,
    super_from_json,
    tp_fix_map,
    tp_fixed_channel,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

SUITES = (
    "dpi",
    "petz",
    "entropy-gain-super",
    "refined-dpi",
    "entropy-nondecrease",
    "entropy-gain",
    "additivity",
    "tp-completion",
    "super-div",
)


class CliError(Exception):
    """User-facing failure carrying the process exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration; the JSON config file mirrors this shape."""

    psd_tol: float = 1e-9
    support_cutoff: float = 1e-10
    herm_tol: float = 1e-9
    ineq_tol: float = 1e-3
    restarts: int = 32
    max_evals: int = 2000
    rank_cutoff: float = 1e-6
    half_width: float = 20.0
    nodes: int = 801
    seed: int = 0
    output_path: Optional[str] = None


_CONFIG_GROUPS = {
    "tolerances": ("psd_tol", "support_cutoff", "herm_tol", "ineq_tol"),
    "optimizer": ("restarts", "max_evals", "rank_cutoff"),
    "quadrature": ("half_width", "nodes"),
}


def load_config(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CliError(EXIT_USAGE, f"{path}: config must be a JSON object")
    fields = {}
    for group, names in _CONFIG_GROUPS.items():
        block = obj.pop(group, {})
        if not isinstance(block, dict):
            raise CliError(EXIT_USAGE, f"{path}: {group} must be an object")
        for key in block:
            if key not in names:
                raise CliError(EXIT_USAGE, f"{path}: unknown {group} key {key!r}")
        fields.update(block)
    for key in ("seed", "output_path"):
        if key in obj:
            fields[key] = obj.pop(key)
    if obj:
        raise CliError(EXIT_USAGE, f"{path}: unknown config keys {sorted(obj)}")
    try:
        cfg = RunConfig(**fields)
        return validate_config(cfg)
    except TypeError as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc}")


def validate_config(cfg):
    for name in _CONFIG_GROUPS["tolerances"]:
        if getattr(cfg, name) <= 0:
            raise CliError(EXIT_USAGE, f"config tolerance {name} must be > 0")
    if cfg.restarts < 1 or cfg.max_evals < 1:
        raise CliError(EXIT_USAGE, "optimizer restarts and max_evals must be >= 1")
    if cfg.rank_cutoff <= 0:
        raise CliError(EXIT_USAGE, "optimizer rank_cutoff must be > 0")
    if cfg.nodes < 3 or cfg.nodes % 2 == 0 or cfg.half_width <= 0:
        raise CliError(EXIT_USAGE, "quadrature needs odd nodes >= 3 and half_width > 0")
    if cfg.seed < 0:
        raise CliError(EXIT_USAGE, "seed must be a nonnegative integer")
    return cfg


def config_hash(cfg):
    """Short stable hash of every field that affects numerical output.

    output_path is excluded so identical runs written to different files
    carry the same hash.
    """
    payload = {
        group: {k: getattr(cfg, k) for k in names}
        for group, names in _CONFIG_GROUPS.items()
    }
    payload["seed"] = cfg.seed
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE, f"cannot parse {path}: {exc}")


def _load_channel(path):
    obj = _load_json(path)
    try:
        return channel_from_json(obj), obj
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"{path}: invalid channel: {exc}")


def _require_cptp(n, path):
    if not is_cptp(n):
        raise CliError(EXIT_INPUT, f"{path}: channel is not certified CPTP")


def _load_state(path, dim=None):
    obj = _load_json(path)
    try:
        x = matrix_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"{path}: invalid matrix: {exc}")
    try:
        rho = check_density(x)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"{path}: not a density matrix: {exc}")
    if dim is not None and rho.shape[0] != dim:
        raise CliError(EXIT_INPUT, f"{path}: dimension {rho.shape[0]} does not match {dim}")
    return rho


def _scalar(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_USAGE, f"cannot write {out_path}: {exc}")


def _opts(cfg, seed):
    return OptimizerOpts(
        restarts=cfg.restarts,
        max_evals=cfg.max_evals,
        seed=int(seed),
        rank_cutoff=cfg.rank_cutoff,
    )


def _with_telecov(n):
    """Tag a square channel certified covariant for the closed entropy form."""
    if n.telecov is not None or n.dim_in != n.dim_out:
        return n
    spec = weyl_heisenberg_spec(n.dim_in)
    if covariance_residual(spec, n) <= COVARIANCE_TOL:
        return Channel(n.dim_in, n.dim_out, n.choi, n.kraus, n.flags, telecov=spec)
    return n


def cmd_entropy(args, cfg):
    n, obj = _load_channel(args.channel)
    _require_cptp(n, args.channel)
    if "thermal" in obj:
        try:
            thermal = ThermalMap(
                matrix_from_json(obj["thermal"]["hamiltonian"]),
                float(obj["thermal"]["beta"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_USAGE, f"{args.channel}: invalid thermal block: {exc}")
        res = channel_entropy_beta(n, thermal, _opts(cfg, cfg.seed))
        payload = {
            "value": _scalar(res.value),
            "method": "beta",
            "witness": matrix_to_json(res.optimizer_state.a_psi),
        }
    else:
        tagged = _with_telecov(n)
        if tagged.telecov is not None:
            payload = {
                "value": _scalar(channel_entropy_telecov(tagged)),
                "method": "telecov",
                "witness": matrix_to_json(maximally_entangled(n.dim_in).a_psi),
            }
        else:
            res = channel_entropy(n, _opts(cfg, cfg.seed))
            payload = {
                "value": _scalar(res.value),
                "method": "opt",
                "witness": matrix_to_json(res.optimizer_state.a_psi),
            }
    _emit(_dump_json(payload), args.out or cfg.output_path)
    return EXIT_OK


def cmd_divergence(args, cfg):
    n, _ = _load_channel(args.channel)
    m, _ = _load_channel(args.reference)
    _require_cptp(n, args.channel)
    if m.flags.cp.status != "yes":
        raise CliError(EXIT_INPUT, f"{args.reference}: reference map is not certified CP")
    if (n.dim_in, n.dim_out) != (m.dim_in, m.dim_out):
        raise CliError(EXIT_INPUT, "channel and reference dimensions differ")
    res = channel_divergence(n, m, _opts(cfg, cfg.seed))
    payload = {
        "value": _scalar(res.value),
        "witness": matrix_to_json(res.optimizer_state.a_psi),
    }
    _emit(_dump_json(payload), args.out or cfg.output_path)
    return EXIT_OK


def cmd_apply_super(args, cfg):
    obj = _load_json(args.supermap)
    try:
        theta = super_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"{args.supermap}: invalid supermap: {exc}")
    n, _ = _load_channel(args.channel)
    a, b = theta.dims[0], theta.dims[1]
    if (n.dim_in, n.dim_out) != (a, b):
        raise CliError(EXIT_INPUT, "channel does not fit the supermap input slot")
    _emit(_dump_json(channel_to_json(apply_super(theta, n))), args.out or cfg.output_path)
    return EXIT_OK


def cmd_recover(args, cfg):
    n, _ = _load_channel(args.channel)
    _require_cptp(n, args.channel)
    sigma = _load_state(args.sigma, dim=n.dim_in)
    y = _load_state(args.input, dim=n.dim_out)
    reference = sigma if args.original is None else _load_state(args.original, dim=n.dim_in)
    quad = Quadrature(cfg.half_width, cfg.nodes)
    builders = {
        "petz": lambda: petz(sigma, n),
        "universal": lambda: universal_recovery(sigma, n, quad),
    }
    wanted = ("petz", "universal") if args.mode == "both" else (args.mode,)
    payload = {
        "mode": args.mode,
        "fidelity_reference": "sigma" if args.original is None else "original",
    }
    for name in wanted:
        rec = builders[name]()
        out = apply(rec.rec, y)
        out = (out + dagger(out)) / 2
        payload[name] = {
            "state": matrix_to_json(out),
            "fidelity": _scalar(fidelity(out, reference)),
        }
    _emit(_dump_json(payload), args.out or cfg.output_path)
    return EXIT_OK


def _trial_seed(seed, index):
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def _random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + 0.05 * np.eye(dim)
    return rho / np.trace(rho).real


def _pauli_channel(rng):
    spec = weyl_heisenberg_spec(2)
    weights = rng.dirichlet(np.ones(4))
    kraus = [np.sqrt(w) * u for w, u in zip(weights, spec.reps_in)]
    return telecov_channel(spec, channel_from_kraus(kraus))


def _haar_mixture_super(rng, terms=2):
    pre = [haar_isometry(2, 2, rng) for _ in range(terms)]
    post = [haar_isometry(2, 2, rng) for _ in range(terms)]
    return random_isometry_super(rng.dirichlet(np.ones(terms)), pre, post)


def _pauli_mixture_super(rng, terms=3):
    spec = weyl_heisenberg_spec(2)
    pre = [spec.reps_in[i] for i in rng.integers(0, 4, size=terms)]
    post = [spec.reps_in[i] for i in rng.integers(0, 4, size=terms)]
    return random_isometry_super(rng.dirichlet(np.ones(terms)), pre, post)


def _suite_dpi(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    n, m = _pauli_channel(rng), _pauli_channel(rng)
    theta = _haar_mixture_super(rng)
    return verify_channel_dpi(
        n, m, theta, _opts(cfg, _trial_seed(seed, index)), tolerance=cfg.ineq_tol
    )


def _suite_petz(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    din = int(rng.integers(2, 4))
    dout = int(rng.integers(2, 4))
    sigma = _random_density(rng, din)
    n = random_channel(din, dout, din * dout, (seed, index, 1))
    recovered = apply(petz(sigma, n).rec, apply(n, sigma))
    residual = float(trace_norm(recovered - sigma))
    return _record(
        "petz-recovery",
        0.0,
        residual,
        1e-9,
        _trial_seed(seed, index),
        {"trial": index, "dim_in": din, "dim_out": dout},
        {"sigma": matrix_to_json(sigma)},
    )


def _suite_entropy_gain_super(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    theta = _haar_mixture_super(rng, terms=1)
    n = _pauli_channel(rng)
    mes = maximally_entangled(2)
    ts = _trial_seed(seed, index)
    rep = verify_entropy_gain_remainder(theta, n, _opts(cfg, ts), psi=mes, phi=mes)
    params = {
        "trial": index,
        "alpha": _scalar(rep.alpha),
        "delta_prime": _scalar(rep.delta_prime),
        "gamma_term": None if rep.gamma_term is None else _scalar(rep.gamma_term),
        "witness_full_rank": rep.witness_full_rank,
    }
    return _record(
        "entropy-gain-super",
        rep.entropy_after - rep.entropy_before,
        rep.rho_alpha_term + rep.delta_prime,
        cfg.ineq_tol,
        ts,
        params,
        {},
    )


def _suite_refined_dpi(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    n, m = _pauli_channel(rng), _pauli_channel(rng)
    theta = _pauli_mixture_super(rng)
    return verify_refined_dpi(
        theta,
        n,
        m,
        _opts(cfg, _trial_seed(seed, index)),
        quad=Quadrature(cfg.half_width, cfg.nodes),
        tolerance=cfg.ineq_tol,
    )


def _suite_entropy_nondecrease(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    theta = _haar_mixture_super(rng)
    n = random_channel(2, 2, 2, (seed, index, 2))
    return verify_entropy_gain_rsub(
        theta, n, _opts(cfg, _trial_seed(seed, index)), tolerance=cfg.ineq_tol
    )


def _suite_entropy_gain(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    din = int(rng.integers(2, 4))
    dout = int(rng.integers(2, 4))
    base = random_channel(din, dout, int(rng.integers(2, 5)), (seed, index, 3))
    scale = float(rng.uniform(0.5, 2.0))
    f = channel_from_kraus([np.sqrt(scale) * k for k in base.kraus])
    return entropy_gain_positive_map(f, _random_density(rng, din), seed=_trial_seed(seed, index))


def _suite_additivity(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    return verify_entropy_additivity(_pauli_channel(rng), _pauli_channel(rng))


def _suite_tp_completion(index, seed, cfg):
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 0] = np.sqrt(2.0)
    k2 = np.zeros((2, 2), dtype=complex)
    k2[1, 1] = 1.0 / np.sqrt(2.0)
    base = channel_from_kraus([k1, k2])
    sigma = np.diag([1.99, -0.2]).astype(complex)
    sigma0 = sigma / np.trace(sigma).real
    fix = tp_fix_map(base, sigma0)
    fixed = tp_fixed_channel(base, sigma0)
    tp_res = float(np.linalg.norm(apply_adjoint(fixed, np.eye(2)) - np.eye(2)))
    min_eig = float(fix.choi_min_eig)
    worst = max(max(0.0, -min_eig), tp_res)
    params = {
        "trial": index,
        "kraus_weights": [float(np.sqrt(2.0)), float(1.0 / np.sqrt(2.0))],
        "sigma_diag": [1.99, -0.2],
        "choi_min_eig": min_eig,
        "tp_residual": tp_res,
        "cptp": bool(fix.is_cptp),
    }
    # Built by hand: the pass rule holds tp_residual to 1e-12, stricter than
    # the 1e-10 tolerance that bounds._record would apply to the worst residual.
    return VerificationRecord(
        "tp-completion",
        0.0,
        float(worst),
        -float(worst),
        min_eig >= -1e-10 and tp_res <= 1e-12,
        1e-10,
        _trial_seed(seed, index),
        params,
        {"sigma0": matrix_to_json(sigma0)},
    )


def _suite_super_div(index, seed, cfg):
    n0 = random_channel(2, 2, 4, (seed, index, 4))
    theta = replacer_supermap(n0, 2, 2)
    gamma = depolarizing_supermap((2, 2, 2, 2))
    ts = _trial_seed(seed, index)
    opts = _opts(cfg, ts)
    base = channel_divergence(n0, depolarizing_r(2, 2), opts)
    witness = random_channel(4, 4, 2, (seed, index, 5))
    product = pure_bipartite(
        np.kron(maximally_entangled(2).a_psi, base.optimizer_state.a_psi)
    )
    value = channel_divergence(
        apply_super(extend_super_with_identity(theta, 2), witness),
        apply_super(extend_super_with_identity(gamma, 2), witness),
        opts,
        witnesses=(product,),
    ).value
    return _record(
        "super-div-lb",
        value,
        base.value - 1.0,
        cfg.ineq_tol,
        ts,
        {"trial": index, "ref_dim": 2, "base_divergence": _scalar(base.value)},
        {"witness": channel_to_json(witness)},
    )


_SUITE_FNS = {
    "dpi": _suite_dpi,
    "petz": _suite_petz,
    "entropy-gain-super": _suite_entropy_gain_super,
    "refined-dpi": _suite_refined_dpi,
    "entropy-nondecrease": _suite_entropy_nondecrease,
    "entropy-gain": _suite_entropy_gain,
    "additivity": _suite_additivity,
    "tp-completion": _suite_tp_completion,
    "super-div": _suite_super_div,
}

# Suites whose instance is fixed rather than sampled; --trials is ignored.
_SINGLE_INSTANCE_SUITES = frozenset({"tp-completion"})


def cmd_verify(args, cfg):
    if args.trials < 1:
        raise CliError(EXIT_USAGE, "trials must be >= 1")
    if args.jobs < 1:
        raise CliError(EXIT_USAGE, "jobs must be >= 1")
    trials = 1 if args.suite in _SINGLE_INSTANCE_SUITES else args.trials
    fn = _SUITE_FNS[args.suite]
    seed = cfg.seed

    def work(index):
        return fn(index, seed, cfg)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        records = list(pool.map(work, range(trials)))
    passes = sum(1 for r in records if r.passed)
    slacks = [r.slack for r in records if np.isfinite(r.slack)]
    report = {
        "suite": args.suite,
        "seed": seed,
        "trials": trials,
        "records": [record_to_json(r) for r in records],
        "summary": {
            "suite": args.suite,
            "trials": trials,
            "passes": passes,
            "failures": trials - passes,
            "min_slack": _scalar(min(slacks)) if slacks else None,
            "config_hash": config_hash(cfg),
        },
    }
    _emit(_dump_json(report), args.out or cfg.output_path)
    return EXIT_OK if passes == trials else EXIT_FAIL


_CSV_COLUMNS = (
    "index",
    "check_id",
    "lhs",
    "rhs",
    "slack",
    "passed",
    "skipped",
    "tolerance",
    "seed",
    "params",
)


def cmd_report(args, cfg):
    blob = _load_json(args.report)
    if not isinstance(blob, dict) or "records" not in blob:
        raise CliError(EXIT_USAGE, f"{args.report}: not a verification report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for index, rec in enumerate(blob["records"]):
        row = [index]
        for col in _CSV_COLUMNS[1:-1]:
            val = rec.get(col)
            row.append("" if val is None else val)
        row.append(json.dumps(rec.get("params", {}), sort_keys=True, separators=(",", ":")))
        writer.writerow(row)
    _emit(buf.getvalue(), args.out or cfg.output_path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superchan",
        description="Channel and superchannel numerics: entropies, divergences, "
        "recovery maps, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--out", help="output file (default: config output_path or stdout)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--restarts", type=int, help="override optimizer restarts")

    p = sub.add_parser("entropy", help="channel entropy of a channel JSON file")
    p.add_argument("channel")
    common(p)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("divergence", help="channel divergence against a CP reference")
    p.add_argument("channel")
    p.add_argument("reference")
    common(p)
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("apply-super", help="apply a supermap JSON file to a channel")
    p.add_argument("supermap")
    p.add_argument("channel")
    common(p)
    p.set_defaults(fn=cmd_apply_super)

    p = sub.add_parser("recover", help="recovery maps for (sigma, channel) on an input state")
    p.add_argument("sigma")
    p.add_argument("channel")
    p.add_argument("input")
    p.add_argument("--mode", choices=("petz", "universal", "both"), default="both")
    p.add_argument("--original", help="state to compare the recovery against (default: sigma)")
    common(p)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("verify", help="run a seeded verification suite and write a report")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--jobs", type=int, default=4, help="worker threads; never affects output bytes")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="project a JSON report to CSV")
    p.add_argument("report")
    common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = validate_config(replace(cfg, seed=args.seed))
        if args.restarts is not None:
            cfg = validate_config(replace(cfg, restarts=args.restarts))
        return args.fn(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
