"""Command-line interface.

Subcommands::

    compile-fem        mesh + nodal coefficients -> network (deep or shallow)
    compile-cpwl       piece-list CPWL function -> network (shallow)
    eval               evaluate a network on points from a CSV file
    verify             sampling equivalence check network vs mesh/cpwl source
    quantize           project weights (layers past the first) onto a grid
    check-structured   verify the low-bit structure of a network
    solve-bvp          run the free-knot 1D variational solver
    report             error/energy table for several knot counts
    demo-region-plot   activation-pattern labels of a network on a grid

``compile-cpwl`` and ``verify --against cpwl`` validate the piece list
first (coverage and agreement at sampled points; see ``CpwlPieces.validate``).

Exit codes: 0 success, 1 usage or input errors, 2 verification failures.
Every subcommand accepts ``--seed`` and ``--report PATH`` (a JSON run
report with input hashes, configuration echo, results, and wall time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import SCHEMA_VERSIONS, __version__
from .compiler import (
    compile_cpwl_shallow,
    compile_fem_deep,
    compile_fem_shallow,
    equivalence_report,
)
from .cpwl import load_pieces
from .errors import CpwlReluError, UsageError
from .galerkin1d import (
    Bvp1dProblem,
    SolverConfig,
    report_table,
    solve_algorithm1,
    state_to_network,
)
from .mesh import interpolate, load_mesh, sample_points
from .quantize import QuantGrid, check_structured, project_network
from .relu_net import (
    eval_network,
    layer_outputs,
    load_network,
    network_stats,
    save_network,
)

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@dataclass
class RunReport:
    """JSON-serializable record of one CLI invocation."""

    command: str
    inputs: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    wall_time: float = 0.0
    version: dict = field(default_factory=lambda: dict(SCHEMA_VERSIONS, package=__version__))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _load_coeffs(path: str) -> np.ndarray:
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return np.asarray(json.load(fh), dtype=float)
    return np.atleast_1d(np.loadtxt(path, delimiter=","))


def _load_points(path: str, dim: int) -> np.ndarray:
    X = np.loadtxt(path, delimiter=",", ndmin=2)
    if X.shape[1] != dim:
        raise UsageError(
            f"points file has {X.shape[1]} columns, network expects {dim}"
        )
    return X


def _grid(text: str) -> tuple[int, int]:
    """The ``--grid k,l`` option.  UsageError passes through argparse (it
    handles only ValueError and TypeError), so ``main`` reports it with exit 1."""
    try:
        k, l = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--grid takes two integers k,l, got {text!r}") from None
    return k, l


def _write_report(report: RunReport, path: str | None, started: float) -> None:
    report.wall_time = time.perf_counter() - started
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(report), fh, indent=2)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_compile_fem(args) -> int:
    started = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    mesh = load_mesh(args.mesh)
    coeffs = _load_coeffs(args.coeffs)
    if args.pathway == "deep":
        net, bound = compile_fem_deep(mesh, coeffs, rng)
    else:
        net, bound = compile_fem_shallow(mesh, coeffs, rng)
    save_network(net, args.output)
    stats = network_stats(net)
    print(
        f"compiled {args.pathway}: hidden layers {stats.hidden_layers}, "
        f"size {stats.size}, nonzero params {stats.nonzero_params}"
    )
    report = RunReport(
        command="compile-fem",
        inputs={args.mesh: _sha256(args.mesh), args.coeffs: _sha256(args.coeffs)},
        config={"pathway": args.pathway, "seed": args.seed},
        results={"bound": bound.to_dict(), "stats": asdict(stats), "output": args.output},
    )
    _write_report(report, args.report, started)
    return 0


def _cmd_compile_cpwl(args) -> int:
    started = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    f = load_pieces(args.cpwl)
    # Its own generator, so the compile's self-check points stay as they were.
    f.validate(np.random.default_rng([args.seed, 1]))
    net, bound = compile_cpwl_shallow(f, rng, route=args.route)
    save_network(net, args.output)
    stats = network_stats(net)
    print(
        f"compiled shallow: hidden layers {stats.hidden_layers}, size {stats.size}, "
        f"pieces {bound.m}, clauses {bound.M}"
    )
    report = RunReport(
        command="compile-cpwl",
        inputs={args.cpwl: _sha256(args.cpwl)},
        config={"route": args.route, "seed": args.seed},
        results={"bound": bound.to_dict(), "stats": asdict(stats), "output": args.output},
    )
    _write_report(report, args.report, started)
    return 0


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    net = load_network(args.net)
    X = _load_points(args.points, net.input_dim)
    vals = np.asarray(eval_network(net, X), dtype=float).reshape(X.shape[0], -1)
    out = np.hstack([X, vals])
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    report = RunReport(
        command="eval",
        inputs={args.net: _sha256(args.net), args.points: _sha256(args.points)},
        config={"seed": args.seed},
        results={"points": int(X.shape[0])},
    )
    _write_report(report, args.report, started)
    return 0


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    net = load_network(args.net)
    if args.against == "mesh":
        if not args.mesh or not args.coeffs:
            raise UsageError("--against mesh needs --mesh and --coeffs")
        mesh = load_mesh(args.mesh)
        coeffs = _load_coeffs(args.coeffs)
        X = sample_points(mesh, args.samples, rng)
        ref = lambda P: interpolate(mesh, coeffs, P)
        inputs = {args.mesh: _sha256(args.mesh), args.coeffs: _sha256(args.coeffs)}
    else:
        if not args.cpwl:
            raise UsageError("--against cpwl needs --cpwl")
        f = load_pieces(args.cpwl)
        f.validate(np.random.default_rng([args.seed, 1]))  # leaves X as it was
        X = f.sample_domain(args.samples, rng)
        ref = lambda P: np.asarray(f(P))
        inputs = {args.cpwl: _sha256(args.cpwl)}
    rep = equivalence_report(net, ref, X, args.tol)
    result = {
        "passed": rep.passed,
        "max_abs_diff": rep.max_abs_diff,
        "worst_point": rep.worst_point.tolist(),
        "samples": rep.samples,
        "tol": rep.tol,
    }
    report = RunReport(
        command="verify",
        inputs=dict(inputs, **{args.net: _sha256(args.net)}),
        config={"against": args.against, "samples": args.samples, "tol": args.tol,
                "seed": args.seed},
        results=result,
    )
    _write_report(report, args.report, started)
    print(json.dumps(result))
    if not rep.passed:
        return 2
    return 0


def _cmd_quantize(args) -> int:
    started = time.perf_counter()
    net = load_network(args.net)
    k, l = args.grid
    out = project_network(net, QuantGrid(k, l), include_first=args.include_first)
    save_network(out, args.output)
    changed = sum(
        int((a[0] - b[0]).count_nonzero())
        for a, b in zip(net.layers, out.layers)
    )
    print(f"projected onto grid ({k},{l}); {changed} weight entries changed")
    report = RunReport(
        command="quantize",
        inputs={args.net: _sha256(args.net)},
        config={"grid": [k, l], "include_first": args.include_first, "seed": args.seed},
        results={"changed_entries": changed, "output": args.output},
    )
    _write_report(report, args.report, started)
    return 0


def _cmd_check_structured(args) -> int:
    started = time.perf_counter()
    net = load_network(args.net)
    k, l = args.grid
    rep = check_structured(net, QuantGrid(k, l), tol=args.tol)
    result = {
        "passed": rep.passed,
        "vacuous": rep.vacuous,
        "checked_layers": rep.checked_layers,
        "checked_params": rep.checked_params,
        "violations": [asdict(v) for v in rep.violations],
    }
    print(json.dumps(result))
    report = RunReport(
        command="check-structured",
        inputs={args.net: _sha256(args.net)},
        config={"grid": [k, l], "tol": args.tol, "seed": args.seed},
        results=result,
    )
    _write_report(report, args.report, started)
    return 0 if rep.passed else 2


def _cmd_solve_bvp(args) -> int:
    started = time.perf_counter()
    problem = Bvp1dProblem.standard()
    cfg = SolverConfig(N=args.N, eta=args.eta, max_iter=args.max_iter)
    state = solve_algorithm1(problem, cfg, t_init=args.init)
    payload = {
        "t": state.t.tolist(),
        "theta": state.theta.tolist(),
        "energy": state.energy,
        "h1_error": state.h1_error,
        "converged": state.converged,
        "stalled": state.stalled,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(state.trace, fh, indent=2)
    if args.net:
        save_network(state_to_network(state), args.net)
    print(
        f"N={args.N}: energy {state.energy:.6f}, H1 error {state.h1_error:.6f}, "
        f"iterations {len(state.trace)}"
    )
    report = RunReport(
        command="solve-bvp",
        config={"N": args.N, "eta": args.eta, "max_iter": args.max_iter,
                "init": args.init, "seed": args.seed},
        results={"energy": state.energy, "h1_error": state.h1_error,
                 "converged": state.converged, "stalled": state.stalled,
                 "iterations": len(state.trace)},
    )
    _write_report(report, args.report, started)
    return 0


def _format_table_md(rows: list[dict]) -> str:
    head = (
        "| N | err uniform | err adaptive | err optimized | "
        "energy uniform | energy adaptive | energy optimized |\n"
        "|---|---|---|---|---|---|---|\n"
    )
    body = "".join(
        f"| {r['N']} | {r['err_uniform']:.4f} | {r['err_afem']:.4f} | "
        f"{r['err_opt']:.4f} | {r['energy_uniform']:.4f} | "
        f"{r['energy_afem']:.4f} | {r['energy_opt']:.4f} |\n"
        for r in rows
    )
    return head + body


def _cmd_report(args) -> int:
    started = time.perf_counter()
    problem = Bvp1dProblem.standard()
    Ns = [int(v) for v in args.N.split(",")]
    rows = report_table(problem, Ns)
    md = _format_table_md(rows)
    print(md, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(md)
    if args.csv:
        cols = ["N", "err_uniform", "err_afem", "err_opt",
                "energy_uniform", "energy_afem", "energy_opt"]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                fh.write(",".join(repr(r[c]) if c != "N" else str(r[c]) for c in cols) + "\n")
    report = RunReport(
        command="report",
        config={"N": Ns, "seed": args.seed},
        results={"rows": rows},
    )
    _write_report(report, args.report, started)
    return 0


def _cmd_demo_region_plot(args) -> int:
    started = time.perf_counter()
    net = load_network(args.net)
    d = net.input_dim
    if d not in (1, 2):
        raise UsageError("region plot supports 1D and 2D networks")
    if net.size > 20000:
        raise UsageError("network too wide for a pattern plot")
    lo, hi = (float(v) for v in args.box.split(","))
    axes = [np.linspace(lo, hi, args.resolution) for _ in range(d)]
    if d == 1:
        X = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        X = np.stack([g0.ravel(), g1.ravel()], axis=1)
    patterns = [act > 0 for act in layer_outputs(net, X.T)][:-1]
    codes = np.vstack(patterns).T if patterns else np.zeros((X.shape[0], 1), dtype=bool)
    labels = {}
    out_labels = np.empty(X.shape[0], dtype=int)
    for i in range(X.shape[0]):
        key = codes[i].tobytes()
        if key not in labels:
            labels[key] = len(labels)
        out_labels[i] = labels[key]
    lines = [
        ",".join(repr(float(v)) for v in X[i]) + f",{out_labels[i]}"
        for i in range(X.shape[0])
    ]
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"# distinct activation patterns: {len(labels)}", file=sys.stderr)
    report = RunReport(
        command="demo-region-plot",
        inputs={args.net: _sha256(args.net)},
        config={"resolution": args.resolution, "box": [lo, hi], "seed": args.seed},
        results={"patterns": len(labels)},
    )
    _write_report(report, args.report, started)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="cpwlrelu", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument(
        "--version", action="version",
        version=f"cpwlrelu {__version__} (schemas: {json.dumps(SCHEMA_VERSIONS)})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=12345, help="random seed")
        sp.add_argument("--report", help="write a JSON run report here")

    sp = sub.add_parser("compile-fem", help="compile a finite element function")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--coeffs", required=True, help="JSON or CSV nodal coefficients")
    sp.add_argument("--pathway", choices=["deep", "shallow"], default="deep")
    sp.add_argument("-o", "--output", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_compile_fem)

    sp = sub.add_parser("compile-cpwl", help="compile a piece-list CPWL function")
    sp.add_argument("--cpwl", required=True)
    sp.add_argument("--route", choices=["auto", "order", "regions"], default="auto")
    sp.add_argument("-o", "--output", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_compile_cpwl)

    sp = sub.add_parser("eval", help="evaluate a network on CSV points")
    sp.add_argument("--net", required=True)
    sp.add_argument("--points", required=True, help="CSV, one point per row")
    sp.add_argument("-o", "--output")
    common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("verify", help="sampling equivalence check")
    sp.add_argument("--net", required=True)
    sp.add_argument("--against", choices=["mesh", "cpwl"], required=True)
    sp.add_argument("--mesh")
    sp.add_argument("--coeffs")
    sp.add_argument("--cpwl")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("quantize", help="project weights onto a dyadic grid")
    sp.add_argument("--net", required=True)
    sp.add_argument("--grid", type=_grid, default="0,3", help="k,l grid parameters")
    sp.add_argument("--include-first", action="store_true",
                    help="also project the first layer (changes the function)")
    sp.add_argument("-o", "--output", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_quantize)

    sp = sub.add_parser("check-structured", help="verify low-bit weight structure")
    sp.add_argument("--net", required=True)
    sp.add_argument("--grid", type=_grid, default="0,3", help="k,l grid parameters")
    sp.add_argument("--tol", type=float, default=0.0)
    common(sp)
    sp.set_defaults(func=_cmd_check_structured)

    sp = sub.add_parser("solve-bvp", help="free-knot 1D variational solve")
    sp.add_argument("--N", type=int, required=True, help="total knot count")
    sp.add_argument("--eta", type=float, default=0.5)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.add_argument("--init", default="afem", choices=["afem", "uniform"])
    sp.add_argument("--out", help="write the state JSON here")
    sp.add_argument("--trace", help="write the iteration trace JSON here")
    sp.add_argument("--net", help="write the one-hidden-layer network here")
    common(sp)
    sp.set_defaults(func=_cmd_solve_bvp)

    sp = sub.add_parser("report", help="error/energy table for several N")
    sp.add_argument("--N", default="23,37,53", help="comma-separated knot counts")
    sp.add_argument("--out", help="write markdown table here")
    sp.add_argument("--csv", help="write CSV table here")
    common(sp)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("demo-region-plot", help="activation-pattern labels on a grid")
    sp.add_argument("--net", required=True)
    sp.add_argument("--resolution", type=int, default=50)
    sp.add_argument("--box", default="-1,1", help="lo,hi for every axis")
    sp.add_argument("-o", "--output")
    common(sp)
    sp.set_defaults(func=_cmd_demo_region_plot)

    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CpwlReluError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
