"""Benchmark workloads, run in a child process started by run.py.

Inputs come from a pool of POOL input seeds whose outputs are recorded in
reference.json; round k of a run with seed s uses pool entry (s + k) mod
POOL, so the same seed always gives the same inputs and every output is
checked.  A measured run repeats rounds until their summed time reaches
--seconds, and divides each round's time by the slowdown that speed.py's
probe saw during it; a traced run (--trace 1) runs the kernel sweep, then
one round of every workload without and then with spans.

    python3 perfbench/workloads.py --workload wide-design --seed 3 \\
        --seconds 20 --trace 0

prints one JSON line: {"attempted", "failed", "metrics", "raw",
"environment"}, where "raw" holds the rates before normalization.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import clogitrep
from clogitrep import cli, conditional, simulate
import inputs
import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
POOL = 16


class Workload:
    """One workload: how to build a round's input, run it, and check it.

    `run` returns a list of (items, value) groups; a group whose value does
    not match the reference within `tol` counts all its items as failed.
    """

    name = ""
    tol = 1e-6
    layer_metrics: tuple[str, ...] = ()

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def prepare(self, entry: int):
        raise NotImplementedError

    def run(self, ctx) -> list[tuple[int, object]]:
        raise NotImplementedError

    def items(self, ctx) -> int:
        raise NotImplementedError


def _cli(argv):
    """cli.main in-process; returns its stdout, or None on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue() if code == 0 else None


def _csv(kind: str, entry: int, rows) -> str:
    path = os.path.join(WORK, f"{kind}-{entry}.csv")
    inputs.write_csv(path, rows)
    return path


SOLVE = ("solve.iterations", "solve.objective_evals", "solve.gradient_evals",
         "solve.self_s")
PROFILE = ("profile.calls", "profile.ms_per_call", "profile.tau_solves")
CONDITIONAL = ("conditional.value_ms", "conditional.score_ms")


class MCStudy(Workload):
    """run_study on the paper's design; an item is one replicate."""

    name = "mc-study"
    layer_metrics = (("simulate.generate_ms", "simulate.replicate_s",
                      "simulate.self_s") + SOLVE + PROFILE + CONDITIONAL)

    def prepare(self, entry):
        if self.smoke:
            return simulate.SimConfig(J=30, K=3, beta_true=(0.5, 0.8),
                                      r_values=(1, 2, 5), n_sims=2,
                                      workers=1, seed=entry)
        return simulate.SimConfig(J=100, K=3, beta_true=(0.5, 0.8),
                                  r_values=(1, 2, 5, 10, 20, 50), n_sims=2,
                                  workers=1, seed=entry)

    def items(self, cfg):
        return cfg.n_sims

    def run(self, cfg):
        summary = simulate.run_study(cfg)
        rows = [[r.method, r.R, float(r.mean[0]), float(r.mean[1]), r.n_used]
                for r in summary.rows]
        return [(cfg.n_sims, rows)]


class HighRFit(Workload):
    """One cold-start CMLE-R fit at large R; an item is one fit."""

    name = "highR-fit"
    layer_metrics = ("cli.self_s", "data.read_csv_s") + SOLVE + CONDITIONAL

    def prepare(self, entry):
        R = "5" if self.smoke else "100"
        return ["fit", "--method", "cmle-r", "--replications", R,
                "--format", "json",
                "--input", _csv("highR", entry, inputs.highr_rows(entry))]

    def items(self, argv):
        return 1

    def run(self, argv):
        out = _cli(argv)
        return [(1, out and json.loads(out)["beta_hat"])]


class WideDesign(Workload):
    """MLE then CMLE on a wide mixed-size design; an item is one fit."""

    name = "wide-design"
    layer_metrics = (("cli.self_s", "data.read_csv_s") + SOLVE + PROFILE
                     + CONDITIONAL)

    def prepare(self, entry):
        scale = 0.1 if self.smoke else 1.0
        return _csv("wide", entry, inputs.wide_rows(entry, scale))

    def items(self, path):
        return 2

    def run(self, path):
        groups = []
        for method in ("mle", "cmle"):
            out = _cli(["fit", "--method", method, "--format", "json",
                        "--input", path])
            groups.append((1, out and json.loads(out)["beta_hat"]))
        return groups


class Asymptotics(Workload):
    """Growth-rate diagnostics; an item is one cluster."""

    name = "asymptotics"
    tol = 1e-9
    layer_metrics = ("cli.self_s", "data.read_csv_s") + PROFILE + (
        "conditional.log_g_calls", "conditional.log_g_ms",
        "saddle.contour_calls", "saddle.contour_ms", "saddle.rate_check_ms")

    def n_clusters(self):
        return 15 if self.smoke else 50

    def prepare(self, entry):
        grid, qmax = (("1,2,5", "5") if self.smoke
                      else ("1,2,5,10,20,50", "20"))
        path = _csv("asym", entry, inputs.asym_rows(entry, self.n_clusters()))
        return ["asymptotics", "--r-grid", grid, "--quadrature-max-r", qmax,
                "--beta", ",".join(map(str, inputs.ASYM_BETA)),
                "--input", path]

    def items(self, argv):
        return self.n_clusters()

    def run(self, argv):
        out = _cli(argv)
        rates: dict[int, list] = {}
        for row in (out or "").splitlines()[1:]:
            cluster, _, _, _, R, rate = row.split(",")[:6]
            rates.setdefault(int(cluster), []).append([int(R), float(rate)])
        return [(1, rates.get(j)) for j in range(self.n_clusters())]


WORKLOADS = {w.name: w for w in (MCStudy, HighRFit, WideDesign, Asymptotics)}


def _matches(value, ref, tol) -> bool:
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(_matches(v, r, tol) for v, r in zip(value, ref)))
    if isinstance(ref, float):
        return isinstance(value, (int, float)) and abs(value - ref) <= tol
    return value == ref


def _perturb(ref):
    """The reference with 1e-3 added to every real number in it."""
    if isinstance(ref, dict):
        return {k: _perturb(v) for k, v in ref.items()}
    if isinstance(ref, list):
        return [_perturb(r) for r in ref]
    return ref + 1e-3 if isinstance(ref, float) else ref


def load_reference(smoke: bool, perturb: bool) -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)["smoke" if smoke else "full"]
    return _perturb(ref) if perturb else ref


def run_round(w: Workload, entry: int, reference: dict, probe: bool = True):
    """Prepare (untimed) and run (timed) one round.

    Returns (seconds, items, failed items, slowdown).  With `probe`, the
    seconds leave out the speed probes taken during the round and the
    slowdown is their factor (speed.factor), by which the seconds divide
    to give normalized seconds; without, the slowdown is 1.
    """
    ctx = w.prepare(entry)
    items = w.items(ctx)
    sampler = speed.Sampler() if probe else None
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            groups = w.run(ctx)
        except Exception:
            traceback.print_exc()
            groups = None
        elapsed = time.perf_counter() - t0
    slowdown = 1.0
    if sampler:
        elapsed -= sampler.spent
        slowdown = sampler.factor()
    ref = reference.get(w.name, {}).get(str(entry))
    if groups is None or ref is None or len(ref) != len(groups):
        return elapsed, items, items, slowdown
    failed = sum(n for (n, value), r in zip(groups, ref)
                 if not _matches(value, r, w.tol))
    return elapsed, items, failed, slowdown


def measure(w: Workload, seed: int, seconds: float, reference: dict):
    """Rounds until their summed time reaches `seconds` (one in smoke mode).

    items_per_s is the items over the rounds' summed normalized seconds:
    each round's time divided by the slowdown the speed probe saw during
    it, so that a stretch in which the shared host runs everything slower
    moves it far less than it moves the raw rate.  The raw rate is
    reported too, as raw_items_per_s.
    """
    timed = normalized = 0.0
    attempted = failed = k = 0
    while True:
        dt, n, bad, slowdown = run_round(w, (seed + k) % POOL, reference)
        timed, normalized = timed + dt, normalized + dt / slowdown
        attempted, failed = attempted + n, failed + bad
        k += 1
        if w.smoke or timed >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return attempted, failed, {
        "items_per_s": (attempted / normalized, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, {"raw_items_per_s": (attempted / timed, "1/s")}


def kernel_cases():
    """(key, function, dataset, R) for every point of the kernel sweep."""
    for K in inputs.KERNEL_SIZES:
        dataset = inputs.kernel_dataset(K)
        for R in inputs.KERNEL_R:
            for kind, fn in (("value", conditional.clr_rep_avg_loglik),
                             ("score", conditional.clr_rep_score)):
                yield f"{kind}_ms.K{K}.R{R}", fn, dataset, R


def kernel_sweep(smoke: bool, reference: dict):
    """Median time of clr_rep_avg_loglik and clr_rep_score over fixed data."""
    metrics, attempted, failed = {}, 0, 0
    ref = reference.get("kernel", {})
    beta = np.array(inputs.KERNEL_BETA)
    for key, fn, dataset, R in kernel_cases():
        times, total = [], 0.0
        while (len(times) < (1 if smoke else 3)
               or (total < 0.3 and len(times) < 50)):
            t0 = time.perf_counter()
            out = fn(dataset, R, beta)
            times.append(time.perf_counter() - t0)
            total += times[-1]
        metrics[f"kernel.{key}"] = (statistics.median(times) * 1e3, "ms")
        attempted += 1
        failed += not _matches(np.atleast_1d(out).tolist(), ref.get(key),
                               1e-9)
    return attempted, failed, metrics


def trace(seed: int, smoke: bool, reference: dict):
    """The kernel sweep, then one round of each workload untraced and traced.

    The sweep goes first because it also lets the allocator and lazy
    imports settle before the untraced round that overhead_frac compares
    against.
    """
    attempted, failed, metrics = kernel_sweep(smoke, reference)
    tracers = []
    for cls in WORKLOADS.values():
        w = cls(smoke)
        entry = seed % POOL
        # no speed probe here: it would run inside whatever span is open
        plain, n, bad, _ = run_round(w, entry, reference, probe=False)
        tracer = tracing.Tracer(f"{w.name}/{entry}")
        undo = tracing.instrument(tracer)
        try:
            traced, n2, bad2, _ = run_round(w, entry, reference, probe=False)
        finally:
            undo()
        tracers.append(tracer)
        attempted, failed = attempted + n + n2, failed + bad + bad2
        layer = tracing.layer_metrics(tracer.spans, n2)
        for name in w.layer_metrics:
            metrics[f"{w.name}.{name}"] = (layer[name],
                                            tracing.UNITS[name])
        metrics[f"{w.name}.trace.overhead_frac"] = (traced / plain - 1.0,
                                                     "ratio")
    with open(os.path.join(WORK, f"spans-seed{seed}.jsonl"), "w") as fh:
        for tracer in tracers:
            tracer.dump(fh)
    return attempted, failed, metrics


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(os.path.join(ROOT, ".git", ref))
        if not head:
            for line in _read(os.path.join(ROOT, ".git",
                                           "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    head = line.split()[0]
    return head or "unknown"


def environment(args) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model or "unknown",
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src", "clogitrep")
    if os.path.dirname(os.path.abspath(clogitrep.__file__)) != src:
        print(f"error: imported clogitrep from {clogitrep.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    reference = load_reference(args.smoke, args.perturb_reference)
    raw = {}
    if args.trace:
        attempted, failed, metrics = trace(args.seed, args.smoke, reference)
    else:
        attempted, failed, metrics, raw = measure(
            WORKLOADS[args.workload](args.smoke), args.seed, args.seconds,
            reference)
    print(json.dumps({
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "environment": environment(args),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
