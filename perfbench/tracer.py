"""Spans around calls into superchan's public functions, from outside the package.

`Tracer` replaces each listed function in every superchan module namespace
that binds it, so calls made inside the package are caught too, and restores
the originals on exit.  Spans stay in memory as flat float rows
(id, name, start, end, parent id, trial index); `layer_metrics` reduces them
to the per-layer metrics of the benchmark.

No wrapped function calls itself, directly or through another wrapped
function, so a name's total time is the sum of its span durations.
"""

import importlib
import itertools
import threading
import time
from array import array

import numpy as np

# module -> public functions wrapped.  The listed per-layer metrics need most
# of them; the rest are what the suites call directly, so that a trial's time
# is covered by library spans.  Trivial helpers such as dagger stay unwrapped.
WRAPPED = {
    "linalg": ("herm_eig", "mat_fn_psd", "support_projector", "psd_check", "fidelity"),
    "channels": (
        "compose",
        "certify_flags",
        "apply",
        "covariance_residual",
        "telecov_channel",
        "channel_from_kraus",
        "channel_from_choi",
        "random_channel",
        "depolarizing_r",
        "channel_to_json",
        "weyl_heisenberg_spec",
    ),
    "divergences": ("rel_entropy", "divergence_at", "channel_divergence", "channel_entropy"),
    "superchannels": (
        "extend_super_with_identity",
        "apply_super",
        "super_from_dilation",
        "generalized_rep",
        "tp_fix_map",
        "random_isometry_super",
    ),
    "recovery": ("universal_recovery",),
    "bounds": (
        "verify_entropy_gain_rsub",
        "verify_refined_dpi",
        "replacer_supermap",
        "depolarizing_supermap",
        "record_to_json",
    ),
}
MODULES = ("", "linalg", "channels", "divergences", "superchannels", "recovery", "bounds", "cli")
TRIAL = "cli.trial"
ROW = 6  # id, name index, start, end, parent id, trial
AGREE_TOL = 1e-9

# Per-layer metrics read straight off the spans: <function>.<calls|total_s|self_s>.
SPAN_METRICS = (
    "linalg.herm_eig.calls",
    "linalg.herm_eig.self_s",
    "linalg.mat_fn_psd.calls",
    "linalg.mat_fn_psd.self_s",
    "linalg.support_projector.calls",
    "linalg.psd_check.calls",
    "linalg.fidelity.self_s",
    "divergences.rel_entropy.calls",
    "divergences.rel_entropy.self_s",
    "divergences.divergence_at.calls",
    "divergences.divergence_at.self_s",
    "divergences.channel_divergence.calls",
    "divergences.channel_divergence.total_s",
    "divergences.channel_divergence.self_s",
    "channels.compose.calls",
    "channels.compose.self_s",
    "channels.certify_flags.calls",
    "channels.certify_flags.self_s",
    "channels.apply.calls",
    "channels.apply.self_s",
    "channels.covariance_residual.self_s",
    "channels.telecov_channel.total_s",
    "superchannels.extend_super_with_identity.calls",
    "superchannels.extend_super_with_identity.total_s",
    "superchannels.apply_super.total_s",
    "superchannels.super_from_dilation.total_s",
    "superchannels.generalized_rep.total_s",
    "superchannels.tp_fix_map.calls",
    "superchannels.tp_fix_map.total_s",
    "recovery.universal_recovery.calls",
    "recovery.universal_recovery.total_s",
    "recovery.universal_recovery.self_s",
    "bounds.record_to_json.self_s",
    f"{TRIAL}.calls",
)

# Units of the per-layer metrics by name suffix; the rest are plain ratios.
UNITS = {
    ".calls": "count",
    "_s": "s",
    ".mean_us": "us",
    "evals_per_restart": "evals/restart",
    "divergences.restarts": "count",
    "divergences.witness_calls": "count",
}


def unit(metric):
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "ratio")


class _Local(threading.local):
    def __init__(self):
        self.stack = []
        self.trial = -1


class Tracer:
    """Context manager that wraps the functions in WRAPPED and cli's suites."""

    def __init__(self):
        self.names = []
        self.spans = array("d")
        self.divergences = []  # (span id, DivergenceResult, witness count)
        self._ids = itertools.count()
        self._local = _Local()
        self._patched = []  # (namespace, key, original)

    def _span(self, name, fn, on_return=None, trial_arg=False):
        name_index = float(len(self.names))
        self.names.append(name)
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        def wrapped(*args, **kwargs):
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            if trial_arg:
                local.trial = args[0]
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((span_id, name_index, t0, t1, parent, local.trial))
            if on_return is not None:
                on_return(span_id, args, kwargs, result)
            return result

        return wrapped

    def _on_divergence(self, span_id, args, kwargs, result):
        witnesses = kwargs.get("witnesses", args[3] if len(args) > 3 else ())
        self.divergences.append((span_id, result, len(witnesses)))

    def __enter__(self):
        modules = {
            name: importlib.import_module(f"superchan.{name}" if name else "superchan")
            for name in MODULES
        }
        for module_name, fn_names in WRAPPED.items():
            for fn_name in fn_names:
                original = getattr(modules[module_name], fn_name)
                hook = self._on_divergence if fn_name == "channel_divergence" else None
                wrapped = self._span(f"{module_name}.{fn_name}", original, hook)
                for module in modules.values():
                    for key, value in vars(module).items():
                        if value is original:
                            self._patch(vars(module), key, wrapped)
        suites = modules["cli"]._SUITE_FNS
        for suite, fn in list(suites.items()):
            self._patch(suites, suite, self._span(TRIAL, fn, trial_arg=True))
        return self

    def _patch(self, namespace, key, value):
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()
        return False

    def rows(self):
        """Spans as an (n, 6) array sorted by span id."""
        rows = np.frombuffer(self.spans, dtype=float).reshape(-1, ROW)
        return rows[np.argsort(rows[:, 0], kind="stable")]


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass; see the benchmark README."""
    rows = tracer.rows()
    ids = rows[:, 0].astype(np.int64)
    name_of = rows[:, 1].astype(np.int64)
    dur = rows[:, 3] - rows[:, 2]
    parent = rows[:, 4].astype(np.int64)
    pos = np.zeros(ids.max() + 1 if ids.size else 0, dtype=np.int64)
    pos[ids] = np.arange(ids.size)
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, pos[parent[has_parent]], dur[has_parent])
    self_time = dur - child

    stats = {"calls": {}, "total_s": {}, "self_s": {}}
    for index, name in enumerate(tracer.names):  # a name may repeat, as cli.trial does
        sel = name_of == index
        for kind, value in (
            ("calls", int(sel.sum())),
            ("total_s", float(dur[sel].sum())),
            ("self_s", float(self_time[sel].sum())),
        ):
            stats[kind][name] = stats[kind].get(name, 0) + value

    def stat(metric):
        name, kind = metric.rsplit(".", 1)
        return stats[kind].get(name, 0)

    m = {metric: stat(metric) for metric in SPAN_METRICS}
    rel_calls = m["divergences.rel_entropy.calls"]
    m["divergences.rel_entropy.mean_us"] = (
        1e6 * stat("divergences.rel_entropy.total_s") / rel_calls if rel_calls else 0.0
    )
    m.update(_divergence_ratios(tracer, name_of, parent))
    m["bounds.verify.total_s"] = sum(
        v for k, v in stats["total_s"].items() if k.startswith("bounds.verify_")
    )
    m["bounds.self_s"] = sum(v for k, v in stats["self_s"].items() if k.startswith("bounds."))
    busy = m["cli.trial.busy_s"] = stat(f"{TRIAL}.total_s")
    m["cli.self_s"] = stat(f"{TRIAL}.self_s")
    m["trace.coverage"] = 1.0 - m["cli.self_s"] / busy if busy > 0 else 0.0
    return m


def _divergence_ratios(tracer, name_of, parent):
    """Work ratios of channel_divergence, from its returned DivergenceResults.

    A ratio whose base is zero on a workload reads 0; the bases are
    divergences.restarts, divergences.witness_calls and
    divergences.channel_divergence.calls.
    """
    evals = name_of == tracer.names.index("divergences.divergence_at")
    evals_under = dict(zip(*(a.tolist() for a in np.unique(parent[evals], return_counts=True))))

    calls = closed = restarts = searched = agree = witness_calls = witness_wins = 0
    for span_id, res, n_witnesses in tracer.divergences:
        calls += 1
        if res.restarts_used == 0 and not res.is_lower_bound:
            closed += 1
            continue
        r = res.restarts_used
        restarts += r
        values = res.per_restart_values
        # Each restart and each witness ends with one divergence_at at its
        # final point; the rest are the simplex's objective evaluations.
        searched += evals_under.get(span_id, 0) - len(values)
        agree += sum(1 for v in values[:r] if abs(v - res.value) <= AGREE_TOL)
        if n_witnesses:
            witness_calls += 1
            witness_wins += max(values[r : r + n_witnesses]) > max(values[:r], default=-np.inf)
    return {
        "divergences.evals_per_restart": searched / restarts if restarts else 0.0,
        "divergences.closed_form_ratio": closed / calls if calls else 0.0,
        "divergences.restart_agree_ratio": agree / restarts if restarts else 0.0,
        "divergences.witness_win_ratio": witness_wins / witness_calls if witness_calls else 0.0,
        "divergences.restarts": restarts,
        "divergences.witness_calls": witness_calls,
    }
