"""In-memory spans around calls into each clogitrep module.

The package itself is not edited: `instrument` replaces module attributes
with wrappers, including the names that `cli`, `simulate` and `saddle` bind
by value at import time, and the returned function puts the originals back.
Each span records (name, start, end, parent, run id); `layer_metrics` turns
the spans of one traced run into per-layer numbers.
"""

from __future__ import annotations

import json
import statistics
import time

from clogitrep import (cli, conditional, data, profile, saddle, simulate,
                       solve)

VALUE_CALLS = {"profile.profile_loglik", "conditional.clr_avg_loglik",
               "conditional.clr_rep_avg_loglik"}
SCORE_CALLS = {"profile.olr_profile_score", "conditional.clr_score",
               "conditional.clr_rep_score"}
SOLVE_CALLS = {"solve.solve_mle", "solve.solve_cmle",
               "solve.solve_cmle_replicated"}


class Tracer:
    """Collects spans as rows [name, start, end, parent, run, count]."""

    def __init__(self, run: str):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = run

    def call(self, name, fn, count, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent, self.run, None]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            row[5] = count(args, result)
        return result

    def dump(self, fh) -> None:
        """One JSON line per span; ids and parents are indices in the run."""
        for i, (name, start, end, parent, run, count) in enumerate(
                self.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "run": run,
                                 "count": count}) + "\n")


def _iterations(args, result):
    return result.iterations


def _rows(args, result):
    return len(args[0])


# (module, attribute, count); a span is named "<module>.<attribute>".
# _dataset_taus, _tau_batch and _fit_replicate are private, but solve_mle's
# final root pass, every tau solve and every study replicate go through them.
_TARGETS = [
    (cli, "main", None),
    (data, "read_csv", None),
    (data, "screen_dataset", None),
    (profile, "profile_tau", None),
    (profile, "profile_loglik", None),
    (profile, "olr_profile_score", None),
    (profile, "_dataset_taus", None),
    (profile, "_tau_batch", _rows),
    (conditional, "clr_avg_loglik", None),
    (conditional, "clr_score", None),
    (conditional, "clr_rep_avg_loglik", None),
    (conditional, "clr_rep_score", None),
    (conditional, "log_g", None),
    (solve, "solve_mle", _iterations),
    (solve, "solve_cmle", _iterations),
    (solve, "solve_cmle_replicated", _iterations),
    (saddle, "rate_limit_check", None),
    (saddle, "contour_integral_g", None),
    (saddle, "u_of_theta", None),
    (simulate, "generate_dataset", None),
    (simulate, "_fit_replicate", None),
    (simulate, "run_study", None),
]

# modules that bind another module's function by value
_IMPORTERS = [cli, simulate, saddle]


def instrument(tracer: Tracer):
    """Wrap every target and every by-value copy of it; return the undo."""
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    for module, attr, count in _TARGETS:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, _fn=original, _name=name, _count=count, **kwargs):
            return tracer.call(_name, _fn, _count, args, kwargs)

        patch(module, attr, wrapper)
        for importer in _IMPORTERS:
            if importer is not module and getattr(importer, attr,
                                                  None) is original:
                patch(importer, attr, wrapper)

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


UNITS = {
    "cli.self_s": "s/item",
    "data.read_csv_s": "s",
    "solve.iterations": "1/fit",
    "solve.objective_evals": "1/fit",
    "solve.gradient_evals": "1/fit",
    "solve.self_s": "s/item",
    "profile.calls": "1/item",
    "profile.ms_per_call": "ms",
    "profile.tau_solves": "1/item",
    "conditional.value_ms": "ms",
    "conditional.score_ms": "ms",
    "conditional.log_g_calls": "1/item",
    "conditional.log_g_ms": "ms",
    "saddle.contour_calls": "1/item",
    "saddle.contour_ms": "ms",
    "saddle.rate_check_ms": "ms",
    "simulate.generate_ms": "ms",
    "simulate.replicate_s": "s",
    "simulate.self_s": "s/item",
}


def _median_ms(spans, names):
    times = [(s[2] - s[1]) * 1e3 for s in spans if s[0] in names]
    return statistics.median(times) if times else 0.0


def layer_metrics(spans, items: int) -> dict[str, float]:
    """Per-layer numbers from one traced run over `items` items.

    Self time of a span is its duration minus that of its direct children;
    a layer's `self_s` is the sum over its spans, per item, so the layers'
    self times add up to the traced time per item.  Counts are per item,
    except the solver counts, which are per fit.
    """
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)
    self_s: dict[str, float] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start - child_time[i])

    def layer_of(i):
        return spans[i][0].split(".")[0]

    def entries(layer):
        """Spans of `layer` not called from within the same layer."""
        return [i for i, s in enumerate(spans) if layer_of(i) == layer
                and (s[3] < 0 or layer_of(s[3]) != layer)]

    fits = [i for i, s in enumerate(spans) if s[0] in SOLVE_CALLS]
    n_fits = max(len(fits), 1)
    profile_entries = entries("profile")
    return {
        "cli.self_s": self_s.get("cli", 0.0) / items,
        "data.read_csv_s": _median_ms(spans, {"data.read_csv"}) / 1e3,
        "solve.iterations": sum(spans[i][5] for i in fits) / n_fits,
        "solve.objective_evals": sum(
            spans[c][0] in VALUE_CALLS for i in fits for c in children[i])
        / n_fits,
        "solve.gradient_evals": sum(
            spans[c][0] in SCORE_CALLS for i in fits for c in children[i])
        / n_fits,
        "solve.self_s": self_s.get("solve", 0.0) / items,
        "profile.calls": len(profile_entries) / items,
        "profile.ms_per_call": (statistics.median(
            (spans[i][2] - spans[i][1]) * 1e3 for i in profile_entries)
            if profile_entries else 0.0),
        "profile.tau_solves": sum(s[5] for s in spans
                                  if s[0] == "profile._tau_batch") / items,
        "conditional.value_ms": _median_ms(spans, VALUE_CALLS - {
            "profile.profile_loglik"}),
        "conditional.score_ms": _median_ms(spans, SCORE_CALLS - {
            "profile.olr_profile_score"}),
        "conditional.log_g_calls": sum(s[0] == "conditional.log_g"
                                       for s in spans) / items,
        "conditional.log_g_ms": _median_ms(spans, {"conditional.log_g"}),
        "saddle.contour_calls": sum(s[0] == "saddle.contour_integral_g"
                                    for s in spans) / items,
        "saddle.contour_ms": _median_ms(spans, {"saddle.contour_integral_g"}),
        "saddle.rate_check_ms": _median_ms(spans,
                                           {"saddle.rate_limit_check"}),
        "simulate.generate_ms": _median_ms(spans,
                                           {"simulate.generate_dataset"}),
        "simulate.replicate_s": _median_ms(
            spans, {"simulate._fit_replicate"}) / 1e3,
        "simulate.self_s": self_s.get("simulate", 0.0) / items,
    }
