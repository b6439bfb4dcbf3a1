"""Runs one workload in this process and prints its metrics.

Usage (normally started by ``run.py``, which fixes the BLAS thread count and
gives each workload its own process)::

    python3 bench/harness.py --workload pieces --seed 1 --seconds 10 --trace 0

An untraced run repeats passes until the passes have taken ``--seconds`` (at
least ``MIN_PASSES`` passes), and sets the inputs up at least ``SETUP_REPS``
times and for at least ``SETUP_MIN_S`` seconds, spread among the passes.  A
pass takes every input through compile, JSON round trip, verification against
an independent reference, the low-bit structure check, and then evaluates all
networks in fixed-size batches; a short step is repeated within the pass.
Every output is checked; the last stdout line is one JSON object.

The machine is shared: other tenants slow it down by up to 2x in spells that
can outlast a run.  Set-ups and passes therefore sample the machine's pace
(see ``pace.py``) before and after the steps of each input and around the
evaluation batches, and each step's time is scaled to the reference pace
with the median of the samples around it.  A time metric is a median over
the run: per input for set-up and for the compile, verify and round-trip
steps (then summed over inputs), over passes for throughput, over batches
for batch latency.  The report also gives the unscaled medians and the
batch latency's 90th percentile, which on a shared machine measures the
other tenants more than the code.

With ``--trace 1`` the run sets up once with tracing on, then alternates
untraced and traced passes, and reports per-layer numbers per one set-up plus
one pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import zlib
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy  # noqa: E402

from cpwlrelu import compiler, quantize, relu_net  # noqa: E402
import pace  # noqa: E402
from spans import Tracer, install_library_tracing, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOL = 1e-9
VERIFY_POINTS = 1024
REPORT_POINTS = 256
SETUP_REPS = 3
SETUP_MIN_S = 3.0
MIN_PASSES = 2
PACE_REPS = 2  # pace samples between two steps
STEP_REPS = 3
STEP_BUDGET_S = 0.5
EVAL_CHUNK = 10  # eval batches between two pace samples
OUT_DIR = ROOT / ".bench_out"


def seeded(seed: int, *keys: str) -> np.random.Generator:
    """Generator fixed by the run seed and the names of what it draws."""
    return np.random.default_rng([seed, *(zlib.crc32(k.encode()) for k in keys)])


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, only when 10 samples lie beyond it.

    "Beyond" is the tail side: above the rank for ``q >= 50``, below it for
    ``q < 50``.

    Raises:
        ValueError: If fewer than 10 samples lie beyond the percentile's rank.
    """
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank if q >= 50 else rank - 1
    if 0 < q < 100 and beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; need 10"
        )
    return xs[rank - 1]


def scale(rec: dict, step: str) -> float:
    """Factor that takes the time of ``step`` in ``rec`` to the reference pace."""
    measured = rec["pace"].get(step)
    return pace.REFERENCE_S / measured if measured else 1.0


def unit_scale(rec: dict, step: str) -> float:
    """Leaves times as measured."""
    return 1.0


def typical(passes, key: str, scale=scale) -> float:
    """Sum over inputs of each input's median ``key`` time in ``passes``."""
    per_input: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for name, t in p[key].items():
            per_input[name].append(t * scale(p, name))
    return sum(statistics.median(ts) for ts in per_input.values())


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _roundtrip(net):
    """``network_to_dict`` -> JSON text -> ``network_from_dict``, as the CLI."""
    text = json.dumps(relu_net.network_to_dict(net))
    return relu_net.network_from_dict(json.loads(text)), text


def _refused_densely(net, exc: Exception) -> bool:
    """True for the library's documented refusal of an oversized dense layer."""
    cap = getattr(relu_net, "MAX_DENSE_ENTRIES", None)
    return (
        isinstance(exc, ValueError)
        and cap is not None
        and any(W.shape[0] * W.shape[1] > cap for W, _ in net.layers)
    )


def stored_entries(W) -> int:
    """What a layer stores: nnz for a sparse matrix, the full shape if dense."""
    return int(W.nnz) if hasattr(W, "nnz") else int(W.shape[0] * W.shape[1])


def network_report(net, X) -> list[dict]:
    """Per-layer width, nnz, storage and activity at the points ``X``."""
    rows = []
    act = np.asarray(X, dtype=float).T
    for i, (W, b) in enumerate(net.layers):
        pre = np.asarray(W @ act) + np.asarray(b)[:, None]
        sparse = hasattr(W, "nnz")
        row = {
            "layer": i,
            "width": int(W.shape[0]),
            "nnz": int(W.count_nonzero() if sparse else np.count_nonzero(W)),
            "stored": stored_entries(W),
            "format": "csr" if sparse else "dense",
        }
        if i < len(net.layers) - 1:
            on = pre > 0
            row["active_frac"] = float(on.mean())
            row["dead_units"] = int(np.sum(~on.any(axis=1)))
            act = np.maximum(pre, 0.0)
        rows.append(row)
    return rows


class Tally:
    """Attempted, failed and refused operations; each failure named and counted."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.refusals: Counter[str] = Counter()

    def ok(self):
        self.attempted += 1

    def fail(self, item, op, what):
        self.attempted += 1
        self.failures[f"{item.name}: {op}: {what}"] += 1

    def refuse(self, item, op, what):
        self.attempted += 1
        self.refusals[f"{item.name}: {op}: {what}"] += 1


class Runner:
    """Sets a workload's inputs up and takes them through passes.

    With ``paced`` set, set-ups and passes sample the machine's pace between
    their steps and record, under ``"pace"``, the median pace around each;
    passes also repeat their short steps (see :meth:`_op`).
    """

    def __init__(self, workload, seed: int, paced: bool = True):
        self.wl = workload
        self.seed = seed
        self.paced = paced
        self.pace_samples: list[float] = []
        self.tally = Tally()
        self.inputs = []
        self.verify_pts = {}
        self.pools = {}
        self.nets = {}
        self.setup_errors = {}

    def _pace(self) -> None:
        if self.paced:
            self.pace_samples += pace.sample(PACE_REPS)

    def _since(self) -> int:
        """Index of the pace samples taken just before the next step."""
        return max(0, len(self.pace_samples) - PACE_REPS)

    def _step_pace(self, since: int):
        """Samples ``since`` on, and after the step just finished: their median."""
        self._pace()
        return statistics.median(self.pace_samples[since:]) if self.paced else None

    # -- set-up ----------------------------------------------------------------

    def setup(self, tracer: Tracer | None = None) -> dict:
        """Sets every input up; a failure is tallied by every later pass.

        Returns ``{"s": {input: seconds}, "pace": {input: pace}}``; the pace
        samples, taken between inputs, are not part of the times.
        """
        call = tracer.span if tracer else _plain
        rec = {"s": {}, "pace": {}}
        inputs = []
        self.pace_samples = []
        self._pace()
        for item in self.wl.items:
            if tracer:
                tracer.input_id = item.name
            since = self._since()
            start = time.perf_counter()
            try:
                inp = call("bench.setup", item.setup, seeded(self.seed, item.name, "setup"))
            except Exception as exc:
                self.setup_errors[item.name] = repr(exc)
                inp = None
            rec["s"][item.name] = time.perf_counter() - start
            rec["pace"][item.name] = self._step_pace(since)
            inputs.append(inp)
        self.inputs = inputs
        return rec

    # -- one pass --------------------------------------------------------------

    def _points(self, item, inp):
        if item.name not in self.verify_pts:
            X = item.points(inp, VERIFY_POINTS, seeded(self.seed, item.name, "verify"))
            anchors = item.anchors(inp)
            if anchors is not None:
                X = np.vstack([X, anchors])
            pool = item.points(inp, self.wl.batch * self.wl.batches_per_pass,
                               seeded(self.seed, item.name, "eval"))
            self.verify_pts[item.name] = X
            self.pools[item.name] = [pool, None]
        return self.verify_pts[item.name]

    def _op(self, item, op, call, fn, *args):
        """Runs one timed operation; returns ``(result, seconds)``.

        In a paced run a short operation is repeated, up to ``STEP_REPS``
        times while the repetitions stay under ``STEP_BUDGET_S``, and the
        median repetition is its time; the result of the last one is
        checked.  An exception is tallied (as a refusal when it is the
        documented dense serialization limit) and gives ``(None, None)``.
        """
        times = []
        while not times or (self.paced and len(times) < STEP_REPS
                            and sum(times) < STEP_BUDGET_S):
            t0 = time.perf_counter()
            try:
                out = call(f"bench.{op}", fn, *args)
            except Exception as exc:
                if op == "roundtrip" and _refused_densely(args[0], exc):
                    self.tally.refuse(item, op, repr(exc))
                else:
                    self.tally.fail(item, op, repr(exc))
                return None, None
            times.append(time.perf_counter() - t0)
        return out, statistics.median(times)

    def _verdict(self, item, op, ok: bool, what) -> None:
        if ok:
            self.tally.ok()
        else:
            self.tally.fail(item, op, what())

    def _item_pass(self, item, inp, rec, call):
        call("bench.gc", gc.collect)  # timed steps start from one collector state
        comp, dt = self._op(item, "compile", call, item.compile, inp)
        if comp is None:
            return None
        rec["compile"][item.name] = dt
        net = comp.net
        depth = net.hidden_layer_count
        self._verdict(item, "compile", depth <= comp.predicted_depth,
                      lambda: f"depth {depth} exceeds predicted {comp.predicted_depth}")
        X = self._points(item, inp)

        # Serialize round trip, as `compile-fem` writes and `verify` reads.
        out, dt = self._op(item, "roundtrip", call, _roundtrip, net)
        if out is not None:
            back, text = out
            rec["roundtrip"][item.name] = dt
            rec["roundtrip_nnz"][item.name] = relu_net.network_stats(net).nonzero_params
            rec["json_bytes"] += len(text)
            probe = X[:64]
            diff = np.max(np.abs(relu_net.eval_network(back, probe)
                                 - relu_net.eval_network(net, probe)))
            self._verdict(item, "roundtrip", diff <= TOL,
                          lambda: f"reloaded network deviates by {diff:.3e}")

        # Verdicts: equivalence to the reference, then low-bit structure.
        verify_s = 0.0
        rep, dt = self._op(item, "verify", call, compiler.equivalence_report,
                           net, comp.reference, X, TOL)
        if rep is not None:
            verify_s += dt
            self._verdict(item, "verify", rep.passed, lambda: (
                f"max deviation {rep.max_abs_diff:.3e} at {rep.worst_point.tolist()}"))
        if item.structured:
            cs, dt = self._op(item, "check", call, quantize.check_structured,
                              net, quantize.QuantGrid(0, 3))
            if cs is not None:
                verify_s += dt
                self._verdict(item, "check", cs.passed, lambda: str(cs.violations[:3]))
        if rep is not None and (not item.structured or cs is not None):
            rec["verify"][item.name] = verify_s
        return comp

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        call = tracer.span if tracer else _plain
        start = time.perf_counter()
        rec = {"compile": {}, "verify": {}, "roundtrip": {}, "roundtrip_nnz": {},
               "json_bytes": 0, "latencies": [], "pace": {}}
        live = []
        self.pace_samples = []
        self._pace()
        for item, inp in zip(self.wl.items, self.inputs):
            if inp is None:
                self.tally.fail(item, "setup", self.setup_errors[item.name])
                continue
            if tracer:
                tracer.input_id = item.name
            since = self._since()
            comp = self._item_pass(item, inp, rec, call)
            rec["pace"][item.name] = self._step_pace(since)
            if comp is not None:
                self.nets[item.name] = comp.net
                live.append((item, comp))
        # Reference values of the eval pools, once per run and untimed.
        pools = []
        for item, comp in live:
            pool = self.pools[item.name]
            if pool[1] is None:
                pool[1] = np.asarray(comp.reference(pool[0]), dtype=float)
            pools.append(pool)

        # Batches in chunks, each chunk a step with its own pace.
        n = self.wl.batches_per_pass
        batches = [(np.split(X, n), np.split(Y, n)) for X, Y in pools]
        call("bench.gc", gc.collect)
        worst = [0.0] * len(live)
        for first in range(0, n, EVAL_CHUNK):
            step = f"(eval {first})"
            since = self._since()
            for b in range(first, min(first + EVAL_CHUNK, n)):
                outs = []
                t0 = time.perf_counter()
                for (item, comp), (xs, _) in zip(live, batches):
                    if tracer:
                        tracer.input_id = item.name
                    outs.append(call("bench.eval", relu_net.eval_network, comp.net, xs[b]))
                rec["latencies"].append((step, time.perf_counter() - t0))
                for i, (out, (_, ys)) in enumerate(zip(outs, batches)):
                    worst[i] = max(worst[i], float(np.max(np.abs(out - ys[b]))))
            rec["pace"][step] = self._step_pace(since)
        rec["eval_points"] = self.wl.batch * n * len(live)
        for (item, _), w in zip(live, worst):
            self._verdict(item, "eval", w <= TOL, lambda: f"max deviation {w:.3e}")
        rec["wall"] = time.perf_counter() - start
        return rec

    # -- reports -----------------------------------------------------------------

    def network_reports(self) -> dict:
        return {name: network_report(net, self.pools[name][0][:REPORT_POINTS])
                for name, net in self.nets.items()}

    def size_metrics(self) -> dict:
        nets = list(self.nets.values())
        stats = [relu_net.network_stats(n) for n in nets]
        return {
            "net_size": (sum(s.size for s in stats), "count"),
            "net_nnz": (sum(s.nonzero_params for s in stats), "count"),
            "net_depth_max": (max(s.hidden_layers for s in stats), "count"),
            "net_stored_entries": (
                sum(stored_entries(W) for n in nets for W, _ in n.layers), "count"),
        }


def env_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def measure(runner: Runner, seconds: float) -> tuple[list[dict], list[dict]]:
    """Set-up times and pass records of an untraced run.

    Set-ups are spread among the passes, so that both kinds of sample come
    from the whole run and a slow spell of the machine does not fall on one
    kind only.
    """
    passes = []
    setups = [runner.setup()]
    setup_due = lambda progress: (len(setups) < SETUP_REPS * progress
                                  or sum(sum(x["s"].values()) for x in setups)
                                  < SETUP_MIN_S * progress)
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        passes.append(runner.run_pass())
        measured += passes[-1]["wall"]
        if setup_due(min(measured / seconds, 1.0) if seconds > 0 else 1.0):
            setups.append(runner.setup())
    while setup_due(1.0):
        setups.append(runner.setup())
    return setups, passes


def batch_latencies(passes: list[dict], scale=scale) -> list[float]:
    return [t * scale(p, step) for p in passes for step, t in p["latencies"]]


def time_metrics(setups: list[dict], passes: list[dict], scale=scale) -> dict:
    """Time metrics of an untraced run, with each step's time scaled by ``scale``."""
    nnz = {k: v for p in passes for k, v in p["roundtrip_nnz"].items()}
    return {
        "setup_s": (statistics.median(
            sum(t * scale(x, name) for name, t in x["s"].items()) for x in setups), "s"),
        "compile_s": (typical(passes, "compile", scale), "s"),
        "verify_s": (typical(passes, "verify", scale), "s"),
        "eval_pts_per_s": (statistics.median(
            p["eval_points"] / sum(t * scale(p, step) for step, t in p["latencies"])
            for p in passes), "1/s"),
        "eval_batch_p50_ms": (1e3 * percentile(batch_latencies(passes, scale), 50), "ms"),
        "roundtrip_nnz_per_s": (
            sum(nnz.values()) / typical(passes, "roundtrip", scale), "1/s"),
    }


def end_to_end(runner: Runner, setups: list[dict], passes: list[dict]) -> dict:
    """End-to-end metrics of an untraced run (see the module docstring)."""
    m = time_metrics(setups, passes)
    m.update(runner.size_metrics())
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    t = runner.tally
    m["ok_frac"] = ((t.attempted - t.failures.total() - t.refusals.total()) / t.attempted,
                    "frac")
    return m


def per_layer(setup_tr: Tracer, pass_trs: list[Tracer], walls: dict, audits, reports) -> dict:
    """Per-layer numbers per one set-up plus one pass, from traced runs."""
    k = len(pass_trs)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for phase in ([setup_tr], pass_trs):
        for tr in phase:
            for span, st in zip(tr.spans, self_times(tr.spans)):
                self_s[span[0]] += st / len(phase)
            for name, v in tr.counters.items():
                counts[name] += v / len(phase)
    layer = lambda prefix: sum(v for n, v in self_s.items() if n.startswith(prefix + "."))
    m = {}
    for name in (
        "mesh.build_mesh", "mesh.find_simplex", "mesh.interpolate", "mesh.vertex_star",
        "mesh.is_locally_convex",
        "cpwl.unique_order_partition", "cpwl.lattice_from_unique_order",
        "cpwl.lattice_from_convex_regions", "cpwl.eval_pieces",
        "compiler.compile_fem_deep", "compiler.compile_fem_shallow",
        "compiler.compile_cpwl_shallow", "compiler.reduce_term_width",
        "compiler.equivalence_report",
        "relu_net.eval_network", "relu_net.apply_level", "relu_net.parallel",
        "relu_net.linear_combine", "relu_net.prune_dead_channels",
        "relu_net.network_to_dict", "relu_net.network_from_dict",
        "quantize.check_structured",
        "galerkin1d.solve_algorithm1", "galerkin1d.solve_afem",
    ):
        m[f"{name}_s"] = (self_s.get(name, 0.0), "s")
    for name in (
        "mesh.lp_calls", "mesh.located_points", "cpwl.lattice_clauses", "cpwl.affine_evals",
        "compiler.reduce_term_width_calls", "compiler.checked_points",
        "relu_net.eval_points", "relu_net.apply_level_calls", "relu_net.pad_network_calls",
        "relu_net.pruned_channels", "relu_net.json_bytes", "quantize.checked_params",
        "galerkin1d.iterations",
    ):
        m[name] = (counts.get(name, 0.0), "count")
    m["compiler.rewrite_audits"] = (audits, "count")
    hidden = [r for rows in reports.values() for r in rows[:-1]]
    units = sum(r["width"] for r in hidden)
    m["relu_net.max_layer_stored_entries"] = (
        max(r["stored"] for rows in reports.values() for r in rows), "count")
    m["relu_net.active_frac"] = (
        sum(r["active_frac"] * r["width"] for r in hidden) / units, "frac")
    m["relu_net.dead_units"] = (sum(r["dead_units"] for r in hidden), "count")
    for mod in ("mesh", "cpwl", "compiler", "relu_net", "quantize", "galerkin1d", "bench"):
        m[f"{mod}.self_s"] = (layer(mod), "s")
    m["trace_overhead_frac"] = (walls["overhead"], "frac")
    m["trace.unattributed_frac"] = (1.0 - sum(self_s.values()) / walls["traced"], "frac")
    return m


def _traced(fn):
    """Runs ``fn(tracer)`` with library tracing installed; returns its wall time."""
    tr = Tracer()
    install_library_tracing(tr)
    before = getattr(compiler, "REWRITE_CHECKS_PASSED", None)
    try:
        t0 = time.perf_counter()
        out = fn(tr)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    after = getattr(compiler, "REWRITE_CHECKS_PASSED", None)
    return tr, out, wall, (None if before is None or after is None else after - before)


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Runs workload ``wl``, writes its report under ``.bench_out`` and returns it."""
    # A traced run compares traced and untraced passes, so neither samples
    # the pace.
    runner = Runner(wl, seed, paced=not trace)
    setups = None
    unscaled = p90 = None
    if trace:
        # A traced set-up, then untraced and traced passes in turn.  The
        # per-layer numbers are per one set-up plus one pass; the overhead
        # compares the two kinds of pass.
        setup_tr, _, traced_setup, _ = _traced(runner.setup)
        passes, pass_trs, traced_walls, audit_counts = [], [], [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(runner.run_pass())
            tr, rec, wall, delta = _traced(runner.run_pass)
            tr.counters["relu_net.json_bytes"] += rec["json_bytes"]
            pass_trs.append(tr)
            traced_walls.append(wall)
            audit_counts.append(delta)
        mean_traced = statistics.mean(traced_walls)
        walls = {
            "overhead": mean_traced / statistics.mean(p["wall"] for p in passes) - 1.0,
            "traced": traced_setup + mean_traced,
        }
        # REWRITE_CHECKS_PASSED is an internal counter that may go away.
        audits = None if None in audit_counts else statistics.mean(audit_counts)
        metrics = per_layer(setup_tr, pass_trs, walls, audits, runner.network_reports())
    else:
        setups, passes = measure(runner, seconds)
        metrics = end_to_end(runner, setups, passes)
        unscaled = {k: v for k, (v, _) in time_metrics(setups, passes, unit_scale).items()}
        try:
            p90 = 1e3 * percentile(batch_latencies(passes), 90)
        except ValueError:
            p90 = None

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if trace:
        for i, tr in enumerate([setup_tr] + pass_trs):
            tr.dump(str(OUT_DIR / f"{tag}-spans{i}.json"))
    t = runner.tally
    result = {
        "correct": not t.failures,
        "attempted": t.attempted,
        "failed": t.failures.total(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    paces = [v for p in passes for v in p["pace"].values() if v]
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_stamp(),
        "passes": len(passes) * (2 if trace else 1), "setups": setups,
        "batch_points": wl.batch, "batches": sum(len(p["latencies"]) for p in passes),
        "pace_ms": 1e3 * statistics.median(paces) if paces else None,
        "unscaled": unscaled, "eval_batch_p90_ms": p90,
        "failures": dict(t.failures), "refusals": dict(t.refusals),
        "per_pass": [{k: v for k, v in p.items() if k != "latencies"} for p in passes],
        "networks": runner.network_reports(),
        "result": result,
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"# {report['workload']} seed {report['seed']} trace {int(report['trace'])}: "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"# {report['passes']} passes, eval batches of {report['batch_points']} points "
          f"per network, {report['batches']} batches")
    if report["unscaled"]:
        p90 = report["eval_batch_p90_ms"]
        print(f"# eval batch p90 {'n/a' if p90 is None else f'{p90:.4g}'} ms at the "
              f"reference pace; machine pace {report['pace_ms']:.3f} ms against the "
              f"reference {1e3 * pace.REFERENCE_S:.3f} ms; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items()))
    for name, rows in report["networks"].items():
        for r in rows:
            act = f" active {r['active_frac']:.3f} dead {r['dead_units']}" if "active_frac" in r else ""
            print(f"# net {name} layer {r['layer']}: width {r['width']} nnz {r['nnz']} "
                  f"stored {r['stored']} {r['format']}{act}")
    for what in ("refusals", "failures"):
        for line, n in report[what].items():
            print(f"# {what[:-1]} x{n}: {line}")
    res = report["result"]
    if report["trace"]:
        m = res["metrics"]
        print(f"# trace: layer self times leave {m['trace.unattributed_frac']['value']:.4f} of "
              f"the traced wall time unattributed; tracing overhead "
              f"{m['trace_overhead_frac']['value']:.4f}")
    print(f"# verdict: correct {res['correct']}, attempted {res['attempted']}, "
          f"failed {res['failed']}, refused {sum(report['refusals'].values())}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]()
    report = run(wl, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
