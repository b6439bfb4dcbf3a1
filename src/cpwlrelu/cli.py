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
Every subcommand accepts ``--seed`` and ``--report PATH``.  A subcommand
returns its exit code and results and declares its file options as the
parser defaults ``inputs`` and ``outputs``; ``main`` writes the JSON run
report for all of them.  It holds the command, ``inputs`` (the SHA-256 of
every input file given, taken before the run), ``config`` (every other
option, output files left out), the results, the wall time and the schema
versions.  A run that ends with exit code 1 writes no report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path

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


def _numbers(option: str, cast, count: int | None = None):
    """argparse ``type=`` for a comma-separated option: ``count`` values (any
    number when None), each read by ``cast``.  UsageError passes through
    argparse (it handles only ValueError and TypeError), so ``main`` reports
    it with exit 1."""
    kind = "integers" if cast is int else "numbers"

    def parse(text: str) -> list:
        try:
            values = [cast(v) for v in text.split(",")]
        except ValueError:
            values = []
        if not values or count not in (None, len(values)):
            want = f"{count} {kind}" if count else f"comma-separated {kind}"
            raise UsageError(f"{option} takes {want}, got {text!r}")
        return values

    return parse


def _write_or_print(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_compile_fem(args) -> tuple[int, dict]:
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
    return 0, {"bound": bound.to_dict(), "stats": asdict(stats), "output": args.output}


def _cmd_compile_cpwl(args) -> tuple[int, dict]:
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
    return 0, {"bound": bound.to_dict(), "stats": asdict(stats), "output": args.output}


def _cmd_eval(args) -> tuple[int, dict]:
    net = load_network(args.net)
    X = _load_points(args.points, net.input_dim)
    vals = np.asarray(eval_network(net, X), dtype=float).reshape(X.shape[0], -1)
    out = np.hstack([X, vals])
    _write_or_print([",".join(repr(float(v)) for v in row) for row in out], args.output)
    return 0, {"points": int(X.shape[0])}


def _cmd_verify(args) -> tuple[int, dict]:
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
    else:
        if not args.cpwl:
            raise UsageError("--against cpwl needs --cpwl")
        f = load_pieces(args.cpwl)
        f.validate(np.random.default_rng([args.seed, 1]))  # leaves X as it was
        X = f.sample_domain(args.samples, rng)
        ref = lambda P: np.asarray(f(P))
    rep = equivalence_report(net, ref, X, args.tol)
    result = {
        "passed": rep.passed,
        "max_abs_diff": rep.max_abs_diff,
        "worst_point": rep.worst_point.tolist(),
        "samples": rep.samples,
        "tol": rep.tol,
    }
    print(json.dumps(result))
    return (0 if rep.passed else 2), result


def _cmd_quantize(args) -> tuple[int, dict]:
    net = load_network(args.net)
    k, l = args.grid
    out = project_network(net, QuantGrid(k, l), include_first=args.include_first)
    save_network(out, args.output)
    changed = sum(
        int((a[0] - b[0]).count_nonzero())
        for a, b in zip(net.layers, out.layers)
    )
    print(f"projected onto grid ({k},{l}); {changed} weight entries changed")
    return 0, {"changed_entries": changed, "output": args.output}


def _cmd_check_structured(args) -> tuple[int, dict]:
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
    return (0 if rep.passed else 2), result


def _cmd_solve_bvp(args) -> tuple[int, dict]:
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
    return 0, {"energy": state.energy, "h1_error": state.h1_error,
               "converged": state.converged, "stalled": state.stalled,
               "iterations": len(state.trace)}


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


def _cmd_report(args) -> tuple[int, dict]:
    rows = report_table(Bvp1dProblem.standard(), args.N)
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
    return 0, {"rows": rows}


def _cmd_demo_region_plot(args) -> tuple[int, dict]:
    net = load_network(args.net)
    d = net.input_dim
    if d not in (1, 2):
        raise UsageError("region plot supports 1D and 2D networks")
    if net.size > 20000:
        raise UsageError("network too wide for a pattern plot")
    lo, hi = args.box
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
    _write_or_print(lines, args.output)
    print(f"# distinct activation patterns: {len(labels)}", file=sys.stderr)
    return 0, {"patterns": len(labels)}


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

    def common(sp, func, inputs, outputs):
        """The options every subcommand takes, its handler, and its input and
        output file options (by dest) for the run report."""
        sp.add_argument("--seed", type=int, default=12345, help="random seed")
        sp.add_argument("--report", help="write a JSON run report here")
        sp.set_defaults(func=func, inputs=inputs, outputs=outputs)

    sp = sub.add_parser("compile-fem", help="compile a finite element function")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--coeffs", required=True, help="JSON or CSV nodal coefficients")
    sp.add_argument("--pathway", choices=["deep", "shallow"], default="deep")
    sp.add_argument("-o", "--output", required=True)
    common(sp, _cmd_compile_fem, ("mesh", "coeffs"), ("output",))

    sp = sub.add_parser("compile-cpwl", help="compile a piece-list CPWL function")
    sp.add_argument("--cpwl", required=True)
    sp.add_argument("--route", choices=["auto", "order", "regions"], default="auto")
    sp.add_argument("-o", "--output", required=True)
    common(sp, _cmd_compile_cpwl, ("cpwl",), ("output",))

    sp = sub.add_parser("eval", help="evaluate a network on CSV points")
    sp.add_argument("--net", required=True)
    sp.add_argument("--points", required=True, help="CSV, one point per row")
    sp.add_argument("-o", "--output")
    common(sp, _cmd_eval, ("net", "points"), ("output",))

    sp = sub.add_parser("verify", help="sampling equivalence check")
    sp.add_argument("--net", required=True)
    sp.add_argument("--against", choices=["mesh", "cpwl"], required=True)
    sp.add_argument("--mesh")
    sp.add_argument("--coeffs")
    sp.add_argument("--cpwl")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp, _cmd_verify, ("net", "mesh", "coeffs", "cpwl"), ())

    sp = sub.add_parser("quantize", help="project weights onto a dyadic grid")
    sp.add_argument("--net", required=True)
    sp.add_argument("--grid", type=_numbers("--grid", int, 2), default="0,3",
                    help="k,l grid parameters")
    sp.add_argument("--include-first", action="store_true",
                    help="also project the first layer (changes the function)")
    sp.add_argument("-o", "--output", required=True)
    common(sp, _cmd_quantize, ("net",), ("output",))

    sp = sub.add_parser("check-structured", help="verify low-bit weight structure")
    sp.add_argument("--net", required=True)
    sp.add_argument("--grid", type=_numbers("--grid", int, 2), default="0,3",
                    help="k,l grid parameters")
    sp.add_argument("--tol", type=float, default=0.0)
    common(sp, _cmd_check_structured, ("net",), ())

    sp = sub.add_parser("solve-bvp", help="free-knot 1D variational solve")
    sp.add_argument("--N", type=int, required=True, help="total knot count")
    sp.add_argument("--eta", type=float, default=0.5)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.add_argument("--init", default="afem", choices=["afem", "uniform"])
    sp.add_argument("--out", help="write the state JSON here")
    sp.add_argument("--trace", help="write the iteration trace JSON here")
    sp.add_argument("--net", help="write the one-hidden-layer network here")
    common(sp, _cmd_solve_bvp, (), ("out", "trace", "net"))

    sp = sub.add_parser("report", help="error/energy table for several N")
    sp.add_argument("--N", type=_numbers("--N", int), default="23,37,53",
                    help="comma-separated knot counts")
    sp.add_argument("--out", help="write markdown table here")
    sp.add_argument("--csv", help="write CSV table here")
    common(sp, _cmd_report, (), ("out", "csv"))

    sp = sub.add_parser("demo-region-plot", help="activation-pattern labels on a grid")
    sp.add_argument("--net", required=True)
    sp.add_argument("--resolution", type=int, default=50)
    sp.add_argument("--box", type=_numbers("--box", float, 2), default="-1,1",
                    help="lo,hi for every axis")
    sp.add_argument("-o", "--output")
    common(sp, _cmd_demo_region_plot, ("net",), ("output",))

    return p


def main(argv: list[str] | None = None) -> int:
    """Runs one subcommand and, given ``--report``, writes its run report."""
    logging.basicConfig(level=logging.WARNING)
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = vars(args)
        # Hashed before the run, which may write an output over an input.
        digests = {
            opts[k]: hashlib.sha256(Path(opts[k]).read_bytes()).hexdigest()
            for k in args.inputs if opts[k] and args.report
        }
        code, results = args.func(args)
        if args.report:
            skip = {"command", "func", "report", "inputs", "outputs", *args.inputs,
                    *args.outputs}
            report = {
                "command": args.command,
                "inputs": digests,
                "config": {k: v for k, v in opts.items() if k not in skip},
                "results": results,
                "wall_time": time.perf_counter() - started,
                "version": dict(SCHEMA_VERSIONS, package=__version__),
            }
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
        return code
    except (CpwlReluError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
