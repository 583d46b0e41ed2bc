"""Command-line front end: channel JSON I/O, entropy and divergence runs,
recovery maps, and seeded verification suites with machine-readable reports.

Reports are deterministic for a fixed config: every trial derives its RNG
from (suite seed, trial index), so worker-thread count never changes the
output bytes.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bounds import (
    INEQ_TOL,
    _interval,
    _record,
    _scalar,
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
    ThermalMap,
    apply,
    apply_adjoint,
    channel_from_json,
    channel_from_kraus,
    channel_to_json,
    depolarizing_r,
    haar_isometry,
    is_cptp,
    random_channel,
    weyl_heisenberg_spec,
)
from .divergences import (
    OptimizerOpts,
    channel_divergence,
    channel_entropy,
    channel_entropy_beta,
    maximally_entangled,
)
from .linalg import (
    check_density,
    dagger,
    fidelity,
    herm_eigvals,
    matrix_from_json,
    matrix_to_json,
    trace_norm,
)
from .recovery import petz, universal_recovery
from .superchannels import (
    apply_super,
    extend_super_with_identity,
    random_isometry_super,
    super_from_json,
    tp_fix_map,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# petz suite: largest trace distance between sigma and its Petz recovery.
PETZ_RECOVERY_TOL = 1e-9
# tp-completion suite: largest of the completed Choi's negative part and its
# TP residual.
TP_COMPLETION_TOL = 1e-12

class CliError(Exception):
    """User-facing failure carrying the process exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration; the JSON config file mirrors this shape."""

    ineq_tol: float = INEQ_TOL
    restarts: int = OptimizerOpts().restarts
    max_evals: int = OptimizerOpts().max_evals
    seed: int = 0
    output_path: Optional[str] = None


_CONFIG_GROUPS = {
    "tolerances": ("ineq_tol",),
    "optimizer": ("restarts", "max_evals"),
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
    # bool is an int subclass, so true/false would otherwise pass as 1/0.
    for name in ("restarts", "max_evals", "seed"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise CliError(EXIT_USAGE, f"config {name} must be an integer, got {value!r}")
    value = cfg.ineq_tol
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    # Fails for NaN, +-Inf and integers too large for a float.
    if not (real and abs(value) <= sys.float_info.max):
        raise CliError(EXIT_USAGE, f"config ineq_tol must be a finite number, got {value!r}")
    if cfg.output_path is not None and not isinstance(cfg.output_path, str):
        raise CliError(EXIT_USAGE, f"config output_path must be a string, got {cfg.output_path!r}")
    if cfg.ineq_tol <= 0:
        raise CliError(EXIT_USAGE, "config tolerance ineq_tol must be > 0")
    if cfg.restarts < 1 or cfg.max_evals < 1:
        raise CliError(EXIT_USAGE, "optimizer restarts and max_evals must be >= 1")
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
        rho = check_density(x, herm_eigvals(x))
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"{path}: not a density matrix: {exc}")
    if dim is not None and rho.shape[0] != dim:
        raise CliError(EXIT_INPUT, f"{path}: dimension {rho.shape[0]} does not match {dim}")
    return rho


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
    return OptimizerOpts(restarts=cfg.restarts, max_evals=cfg.max_evals, seed=int(seed))


def _result_payload(res, **extra):
    """The interval, evaluation count, convergence and witness of a DivergenceResult, as JSON."""
    return {
        "value": _scalar(res.value),
        "upper": _scalar(res.upper),
        "evaluations": res.evaluations,
        "converged": res.converged,
        "witness": matrix_to_json(res.optimizer_state.a_psi),
        **extra,
    }


def cmd_entropy(args, cfg):
    n, obj = _load_channel(args.channel)
    _require_cptp(n, args.channel)
    if "thermal" in obj:
        try:
            beta = obj["thermal"]["beta"]
            numeric = isinstance(beta, (int, float)) and not isinstance(beta, bool)
            if not (numeric and np.isfinite(beta)):
                raise ValueError("'beta' must be a finite number")
            thermal = ThermalMap(matrix_from_json(obj["thermal"]["hamiltonian"]), float(beta))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_USAGE, f"{args.channel}: invalid thermal block: {exc}")
        res, method = channel_entropy_beta(n, thermal), "beta"
    else:
        res, method = channel_entropy(n), "certified"
    _emit(_dump_json(_result_payload(res, method=method)), args.out or cfg.output_path)
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
    _emit(_dump_json(_result_payload(res)), args.out or cfg.output_path)
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
    builders = {
        "petz": lambda: petz(sigma, n),
        "universal": lambda: universal_recovery(sigma, n),
    }
    wanted = ("petz", "universal") if args.mode == "both" else (args.mode,)
    payload = {
        "mode": args.mode,
        "fidelity_reference": "sigma" if args.original is None else "original",
    }
    for name in wanted:
        out = apply(builders[name](), y)
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
    """The Pauli channel sum_g w_g U_g . U_g^dagger, w Dirichlet, which is its own twirl."""
    weights = rng.dirichlet(np.ones(4))
    return channel_from_kraus(np.sqrt(weights)[:, None, None] * weyl_heisenberg_spec(2).reps_in)


def _haar_mixture_super(rng, terms=2):
    pre = [haar_isometry(2, 2, rng) for _ in range(terms)]
    post = [haar_isometry(2, 2, rng) for _ in range(terms)]
    return random_isometry_super(rng.dirichlet(np.ones(terms)), pre, post)


def _pauli_mixture_super(rng):
    paulis = weyl_heisenberg_spec(2).reps_in
    pre, post = paulis[rng.integers(0, 4, size=3)], paulis[rng.integers(0, 4, size=3)]
    return random_isometry_super(rng.dirichlet(np.ones(3)), pre, post)


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
    recovered = apply(petz(sigma, n), apply(n, sigma))
    residual = float(trace_norm(recovered - sigma))
    return _record(
        "petz-recovery",
        0.0,
        residual,
        PETZ_RECOVERY_TOL,
        {"trial": index, "dim_in": din, "dim_out": dout},
        {"sigma": matrix_to_json(sigma)},
    )


def _suite_entropy_gain_super(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    theta = _haar_mixture_super(rng, terms=1)
    n = _pauli_channel(rng)
    mes = maximally_entangled(2)
    rec = verify_entropy_gain_remainder(theta, n, psi=mes, phi=mes, tolerance=cfg.ineq_tol)
    return replace(rec, params={"trial": index, **rec.params})


def _suite_refined_dpi(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    n, m = _pauli_channel(rng), _pauli_channel(rng)
    theta = _pauli_mixture_super(rng)
    return verify_refined_dpi(
        theta,
        n,
        m,
        _opts(cfg, _trial_seed(seed, index)),
        tolerance=cfg.ineq_tol,
    )


def _suite_entropy_nondecrease(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    theta = _haar_mixture_super(rng)
    n = random_channel(2, 2, 2, (seed, index, 2))
    return verify_entropy_gain_rsub(theta, n, tolerance=cfg.ineq_tol)


def _suite_entropy_gain(index, seed, cfg):
    rng = np.random.default_rng((seed, index))
    din = int(rng.integers(2, 4))
    dout = int(rng.integers(2, 4))
    base = random_channel(din, dout, int(rng.integers(2, 5)), (seed, index, 3))
    scale = float(rng.uniform(0.5, 2.0))
    f = channel_from_kraus(np.sqrt(scale) * base.kraus)
    return entropy_gain_positive_map(f, _random_density(rng, din))


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
    fixed = tp_fix_map(base, sigma0)
    tp_res = float(np.linalg.norm(apply_adjoint(fixed, np.eye(2)) - np.eye(2)))
    min_eig = float(fixed.flags.cp.certificate)
    params = {
        "trial": index,
        "kraus_weights": [float(np.sqrt(2.0)), float(1.0 / np.sqrt(2.0))],
        "sigma_diag": [1.99, -0.2],
        "choi_min_eig": min_eig,
        "tp_residual": tp_res,
        "cptp": fixed.flags.cp.status == "yes",
    }
    return _record(
        "tp-completion",
        0.0,
        max(0.0, -min_eig, tp_res),
        TP_COMPLETION_TOL,
        params,
        {"sigma0": matrix_to_json(sigma0)},
    )


def _suite_super_div(index, seed, cfg):
    n0 = random_channel(2, 2, 4, (seed, index, 4))
    theta = replacer_supermap(n0, 2, 2)
    gamma = depolarizing_supermap((2, 2, 2, 2))
    opts = _opts(cfg, _trial_seed(seed, index))
    base = channel_divergence(n0, depolarizing_r(2, 2), opts)
    witness = random_channel(4, 4, 2, (seed, index, 5))
    heavy = channel_divergence(
        apply_super(extend_super_with_identity(theta, 2), witness),
        apply_super(extend_super_with_identity(gamma, 2), witness),
        opts,
    )
    params = {
        "trial": index,
        "ref_dim": 2,
        "divergence": _interval(heavy),
        "base_divergence": _interval(base),
        "lhs_end": "lower",
        "rhs_end": "upper",
    }
    return _record(
        "super-div-lb",
        heavy.value,
        base.upper - 1.0,
        cfg.ineq_tol,
        params,
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
        return replace(fn(index, seed, cfg), seed=_trial_seed(seed, index))

    if args.jobs == 1:
        records = list(map(work, range(trials)))
    else:
        # Imported only here: concurrent.futures pulls in logging at import.
        from concurrent.futures import ThreadPoolExecutor

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
    records = blob["records"]
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise CliError(EXIT_USAGE, f"{args.report}: 'records' must be a list of objects")
    import csv  # only report writes CSV; every other call skips the import
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for index, rec in enumerate(records):
        row = [index]
        for col in _CSV_COLUMNS[1:-1]:
            val = rec.get(col)
            row.append("" if val is None else val)
        row.append(json.dumps(rec.get("params", {}), sort_keys=True, separators=(",", ":")))
        writer.writerow(row)
    _emit(buf.getvalue(), args.out or cfg.output_path)
    return EXIT_OK


def _arg(*flags, **kwargs):
    return flags, kwargs


_FILE_ARGS = (
    _arg("--config", help="JSON run configuration file"),
    _arg("--out", help="output file (default: config output_path or stdout)"),
)
# Only divergence and verify read the seed and the restarts.
_OPTIMIZER_ARGS = (
    _arg("--seed", type=int, help="override the config seed"),
    _arg("--restarts", type=int, help="override optimizer restarts"),
)

# name -> (help, handler, arguments), in the order the full help lists them.
_COMMANDS = {
    "entropy": (
        "channel entropy of a channel JSON file",
        cmd_entropy,
        (_arg("channel"), *_FILE_ARGS),
    ),
    "divergence": (
        "channel divergence against a CP reference",
        cmd_divergence,
        (_arg("channel"), _arg("reference"), *_FILE_ARGS, *_OPTIMIZER_ARGS),
    ),
    "apply-super": (
        "apply a supermap JSON file to a channel",
        cmd_apply_super,
        (_arg("supermap"), _arg("channel"), *_FILE_ARGS),
    ),
    "recover": (
        "recovery maps for (sigma, channel) on an input state",
        cmd_recover,
        (
            _arg("sigma"),
            _arg("channel"),
            _arg("input"),
            _arg("--mode", choices=("petz", "universal", "both"), default="both"),
            _arg("--original", help="state to compare the recovery against (default: sigma)"),
            *_FILE_ARGS,
        ),
    ),
    "verify": (
        "run a seeded verification suite and write a report",
        cmd_verify,
        (
            _arg("suite", choices=tuple(_SUITE_FNS)),
            _arg("--trials", type=int, default=10),
            _arg(
                "--jobs",
                type=int,
                default=1,
                help="worker threads (default 1); never affects output bytes",
            ),
            *_FILE_ARGS,
            *_OPTIMIZER_ARGS,
        ),
    ),
    "report": (
        "project a JSON report to CSV",
        cmd_report,
        (_arg("report"), *_FILE_ARGS),
    ),
}


def _add_command(parser, name):
    _, fn, arguments = _COMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(fn=fn, command=name)
    return parser


def build_parser(command=None):
    """The parser of one command, or with command=None the full parser.

    A call runs one command, so `main` builds only that command's parser; the
    full parser, with every command as a subparser, serves the top-level help
    and the usage errors that name no command.
    """
    if command is not None:
        return _add_command(argparse.ArgumentParser(prog=f"superchan {command}"), command)
    parser = argparse.ArgumentParser(
        prog="superchan",
        description="Channel and superchannel numerics: entropies, divergences, "
        "recovery maps, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        for name in ("seed", "restarts"):
            if getattr(args, name, None) is not None:
                cfg = validate_config(replace(cfg, **{name: getattr(args, name)}))
        return args.fn(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        # Any other exception is a defect in the program, not a failed check.
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
