"""Command-line interface: exit codes, file outputs, run reports.

All invocations go through ``cli.main(argv)`` in-process; one test runs the
installed console script in a subprocess to cover the entry point.
"""

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from cpwlrelu import __version__
from cpwlrelu.cli import _format_table_md
from cpwlrelu.cli import main as _cli_main


def main(argv):
    """Runs the CLI in-process with its terminal output silenced, so test
    runs with capture disabled stay readable."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return _cli_main(argv)
from cpwlrelu import compiler
from cpwlrelu.cpwl import (
    LatticeForm,
    lattice_from_dict,
    lattice_to_dict,
    pieces_from_dict,
    pieces_to_dict,
)
from cpwlrelu.mesh import mesh_from_dict, mesh_to_dict
from cpwlrelu.relu_net import (
    ReluNetwork,
    affine_network,
    eval_network,
    network_from_dict,
    network_to_dict,
    save_network,
)

from helpers import (
    b64_array,
    crisscross_mesh,
    kuhn_cube_mesh,
    layer_array,
    random_max_affine,
    square_two_triangles,
)


@pytest.fixture()
def mesh_file(tmp_path):
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(mesh_to_dict(mesh)))
    return path, mesh


@pytest.fixture()
def coeff_file(tmp_path, mesh_file, rng):
    _, mesh = mesh_file
    coeffs = rng.normal(size=mesh.num_vertices)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs.tolist()))
    return path, coeffs


def _compile(tmp_path, mesh_file, coeff_file, extra=()):
    out = tmp_path / "net.json"
    rc = main(
        [
            "compile-fem",
            "--mesh", str(mesh_file[0]),
            "--coeffs", str(coeff_file[0]),
            "-o", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# compile-fem / verify round trips
# ---------------------------------------------------------------------------


def test_compile_then_verify_ok(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    net = network_from_dict(json.loads(out.read_text()))
    assert net.input_dim == 2
    rc = main(
        [
            "verify",
            "--net", str(out),
            "--against", "mesh",
            "--mesh", str(mesh_file[0]),
            "--coeffs", str(coeff_file[0]),
            "--samples", "2000",
        ]
    )
    assert rc == 0


def test_verify_detects_corruption(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    payload = json.loads(out.read_text())
    layer = payload["layers"][1]
    data = layer_array(layer, "data")
    data[0] += 0.25  # first stored weight of layer 1
    layer["data"] = b64_array("data", data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(
        [
            "verify",
            "--net", str(bad),
            "--against", "mesh",
            "--mesh", str(mesh_file[0]),
            "--coeffs", str(coeff_file[0]),
        ]
    )
    assert rc == 2


def test_verify_rejects_malformed_network_file(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    payload = json.loads(out.read_text())
    layer = payload["layers"][1]
    indices = layer_array(layer, "indices")
    indices[0] = layer["shape"][1]  # one past the last column
    layer["indices"] = b64_array("indices", indices)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = main(
        [
            "verify",
            "--net", str(bad),
            "--against", "mesh",
            "--mesh", str(mesh_file[0]),
            "--coeffs", str(coeff_file[0]),
        ]
    )
    assert rc == 1


def test_verify_rejects_non_integer_input_dim(tmp_path, mesh_file, coeff_file, capsys):
    out = _compile(tmp_path, mesh_file, coeff_file)
    payload = json.loads(out.read_text())
    payload["input_dim"] = 2.7  # int() would read it as 2 and verify would pass
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = _cli_main(["verify", "--net", str(bad), "--against", "mesh",
                    "--mesh", str(mesh_file[0]), "--coeffs", str(coeff_file[0])])
    assert rc == 1
    assert "error: input_dim must be an integer, not 2.7" in capsys.readouterr().err


def test_verify_requires_reference_args(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    rc = main(["verify", "--net", str(out), "--against", "mesh"])
    assert rc == 1


def test_compile_missing_file_is_usage_error(tmp_path):
    rc = main(
        [
            "compile-fem",
            "--mesh", str(tmp_path / "nope.json"),
            "--coeffs", str(tmp_path / "nope2.json"),
            "-o", str(tmp_path / "out.json"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_compile_rejects_non_finite_mesh(tmp_path, mesh_file, coeff_file, capsys, bad):
    payload = json.loads(mesh_file[0].read_text())
    payload["vertices"][4][0] = bad  # json writes NaN / Infinity
    mpath = tmp_path / "bad_mesh.json"
    mpath.write_text(json.dumps(payload))
    rc = _cli_main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(coeff_file[0]),
                    "-o", str(tmp_path / "n.json")])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("compile-fem", "--mesh"), ("compile-cpwl", "--cpwl")])
def test_malformed_input_file_is_an_error_not_a_traceback(
    tmp_path, coeff_file, capsys, command, flag
):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"schema": "1", "dim": 2}))
    extra = ["--coeffs", str(coeff_file[0])] if command == "compile-fem" else []
    rc = _cli_main([command, flag, str(src), *extra, "-o", str(tmp_path / "n.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "load", [mesh_from_dict, pieces_from_dict, lattice_from_dict, network_from_dict]
)
def test_loaders_require_a_json_object(load):
    with pytest.raises(ValueError, match="must be a JSON object, not list"):
        load([1, 2])


@pytest.mark.parametrize("flag", ["--mesh", "--net"])
def test_non_object_input_file_is_an_error_not_a_traceback(
    tmp_path, mesh_file, coeff_file, capsys, flag
):
    src = tmp_path / "list.json"
    src.write_text("[1, 2]")
    if flag == "--mesh":
        argv = ["compile-fem", "--mesh", str(src), "--coeffs", str(coeff_file[0]),
                "-o", str(tmp_path / "n.json")]
    else:
        argv = ["verify", "--net", str(src), "--against", "mesh",
                "--mesh", str(mesh_file[0]), "--coeffs", str(coeff_file[0])]
    rc = _cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "JSON object" in err and "Traceback" not in err


def test_compile_rejects_fractional_vertex_index(tmp_path, mesh_file, coeff_file, capsys):
    payload = json.loads(mesh_file[0].read_text())
    payload["simplices"][0][2] += 0.7
    mpath = tmp_path / "frac_mesh.json"
    mpath.write_text(json.dumps(payload))
    rc = _cli_main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(coeff_file[0]),
                    "-o", str(tmp_path / "n.json")])
    assert rc == 1
    assert "integer vertex indices" in capsys.readouterr().err


def test_compile_rejects_ragged_simplices(tmp_path, mesh_file, coeff_file, capsys):
    payload = json.loads(mesh_file[0].read_text())
    payload["simplices"][1] = payload["simplices"][1][:2]
    mpath = tmp_path / "ragged_mesh.json"
    mpath.write_text(json.dumps(payload))
    rc = _cli_main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(coeff_file[0]),
                    "-o", str(tmp_path / "n.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "ragged mesh 'simplices': row 1" in err and "Traceback" not in err


def test_compile_fem_shallow_over_the_valence_cap_is_an_error(tmp_path, capsys):
    mesh = kuhn_cube_mesh(2)
    mpath, cpath = tmp_path / "kuhn.json", tmp_path / "c.json"
    mpath.write_text(json.dumps(mesh_to_dict(mesh)))
    cpath.write_text(json.dumps(np.random.default_rng(0).normal(size=mesh.num_vertices).tolist()))
    rc = _cli_main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(cpath),
                    "--pathway", "shallow", "-o", str(tmp_path / "n.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: vertex 4 has valence 12" in err and "Traceback" not in err


def test_compile_fem_shallow_failed_rewrite_check_is_an_error(tmp_path, mesh_file,
                                                             coeff_file, monkeypatch, capsys):
    """A width rewrite that fails its numerical check (forced here by a
    negative tolerance) is reported by the CLI, with no traceback."""
    monkeypatch.setattr(compiler, "REWRITE_TOL", -1.0)
    rc = _cli_main(["compile-fem", "--mesh", str(mesh_file[0]), "--coeffs", str(coeff_file[0]),
                    "--pathway", "shallow", "-o", str(tmp_path / "n.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: " in err and "failed numerical check" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("pathway", ["deep", "shallow"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_compile_fem_non_finite_coefficient_is_an_error(tmp_path, mesh_file, pathway, bad,
                                                        capsys):
    """A NaN or infinite coefficient is refused before anything is emitted,
    naming its vertex; no network file is written."""
    coeffs = np.random.default_rng(0).normal(size=mesh_file[1].num_vertices)
    coeffs[[4, 6]] = bad
    cpath, out = tmp_path / "c.json", tmp_path / "n.json"
    cpath.write_text(json.dumps(coeffs.tolist()))  # writes NaN / Infinity
    rc = _cli_main(["compile-fem", "--mesh", str(mesh_file[0]), "--coeffs", str(cpath),
                    "--pathway", pathway, "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err and not out.exists()
    assert err.startswith(f"error: the coefficient of vertex 4 is {bad}; "
                          "FE coefficients must be finite")


def test_compile_fem_failed_self_check_is_an_error(tmp_path, capsys):
    """Coefficients of 1e7 put the deep network's roundoff above the absolute
    1e-9 self-check; the CLI reports the failed check, with no traceback."""
    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    coeffs = 1e7 * np.random.default_rng(0).normal(size=mesh.num_vertices)
    mpath, cpath = tmp_path / "m.json", tmp_path / "c.json"
    mpath.write_text(json.dumps(mesh_to_dict(mesh)))
    cpath.write_text(json.dumps(coeffs.tolist()))
    rc = _cli_main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(cpath),
                    "--pathway", "deep", "-o", str(tmp_path / "n.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: internal error: deep FE function deviates by" in err
    assert "Traceback" not in err


def test_verify_rejects_zero_samples(tmp_path, mesh_file, coeff_file, capsys):
    out = _compile(tmp_path, mesh_file, coeff_file)
    rc = _cli_main(["verify", "--net", str(out), "--against", "mesh",
                    "--mesh", str(mesh_file[0]), "--coeffs", str(coeff_file[0]),
                    "--samples", "0"])
    assert rc == 1
    assert "--samples" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_writes_values(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    pts = tmp_path / "points.csv"
    samples = np.array([[0.25, 0.25], [0.5, 0.5], [0.75, 0.1]])
    np.savetxt(pts, samples, delimiter=",")
    dest = tmp_path / "values.csv"
    rc = main(["eval", "--net", str(out), "--points", str(pts), "-o", str(dest)])
    assert rc == 0
    with open(dest) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # one row per point: x, y, value
    assert all(len(r) == 3 for r in rows)
    net = network_from_dict(json.loads(out.read_text()))
    expected = eval_network(net, samples)
    got = np.array([float(r[-1]) for r in rows])
    assert np.allclose(got, expected, atol=1e-12)


def test_eval_rejects_wrong_width(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    pts = tmp_path / "points.csv"
    np.savetxt(pts, np.zeros((3, 4)), delimiter=",")
    assert main(["eval", "--net", str(out), "--points", str(pts)]) == 1


# ---------------------------------------------------------------------------
# quantize / check-structured
# ---------------------------------------------------------------------------


def test_quantize_then_check_structured(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    assert main(["check-structured", "--net", str(out)]) == 0
    q = tmp_path / "quant.json"
    assert main(["quantize", "--net", str(out), "-o", str(q)]) == 0
    assert main(["check-structured", "--net", str(q)]) == 0


def test_check_structured_fails_off_grid(tmp_path):
    W0 = np.array([[1.0], [-1.0]])
    W1 = np.array([[0.3, 0.5]])  # 0.3 is off the half-integer grid
    net_dict = network_to_dict(
        __import__("cpwlrelu.relu_net", fromlist=["ReluNetwork"]).ReluNetwork(
            1, [(W0, np.zeros(2)), (W1, np.zeros(1))]
        )
    )
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net_dict))
    assert main(["check-structured", "--net", str(path)]) == 2


def test_check_structured_sums_duplicate_indices(tmp_path):
    net_dict = network_to_dict(
        ReluNetwork(1, [(np.array([[1.0], [-1.0]]), np.zeros(2)),
                        (np.array([[1.0, 0.0]]), np.zeros(1))])
    )
    # column 0 stored twice in the output row: 1.0 + 1.0 = 2.0 is off the grid
    net_dict["layers"][1].update(indptr=b64_array("indptr", [0, 2]),
                                 indices=b64_array("indices", [0, 0]),
                                 data=b64_array("data", [1.0, 1.0]))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net_dict))
    assert main(["check-structured", "--net", str(path)]) == 2


def test_quantize_reports_changed_entries(tmp_path):
    net = ReluNetwork(
        1, [(np.array([[1.0], [-1.0]]), np.zeros(2)), (np.array([[0.3, 0.5]]), np.zeros(1))]
    )
    path = tmp_path / "net.json"
    save_network(net, str(path))
    report = tmp_path / "run.json"
    rc = main(["quantize", "--net", str(path), "-o", str(tmp_path / "q.json"),
               "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["results"]["changed_entries"] == 1  # 0.3 -> 0.5


def test_run_report_hashes_inputs_before_outputs_overwrite_them(tmp_path):
    net = ReluNetwork(
        1, [(np.array([[1.0], [-1.0]]), np.zeros(2)), (np.array([[0.3, 0.5]]), np.zeros(1))]
    )
    path = tmp_path / "net.json"
    save_network(net, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    report = tmp_path / "run.json"
    assert main(["quantize", "--net", str(path), "-o", str(path), "--report", str(report)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() != digest
    assert json.loads(report.read_text())["inputs"] == {str(path): digest}


def test_quantize_custom_grid(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    q = tmp_path / "quant.json"
    assert main(["quantize", "--net", str(out), "--grid", "0,2", "-o", str(q)]) == 0
    net = network_from_dict(json.loads(q.read_text()))
    for W, _ in net.layers[1:]:
        vals = np.unique(np.round(W.toarray(), 12))
        assert set(vals).issubset({-1.0, 0.0, 1.0})


def test_quantize_bad_grid_string(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    rc = main(["quantize", "--net", str(out), "--grid", "banana",
               "-o", str(tmp_path / "q.json")])
    assert rc == 1


@pytest.mark.parametrize("command", ["quantize", "check-structured"])
@pytest.mark.parametrize("grid", ["0", "a,b"])
def test_malformed_grid_is_usage_error(tmp_path, mesh_file, coeff_file, capsys,
                                       command, grid):
    out = _compile(tmp_path, mesh_file, coeff_file)
    argv = [command, "--net", str(out), "--grid", grid]
    if command == "quantize":
        argv += ["-o", str(tmp_path / "q.json")]
    rc = _cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "--grid" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["demo-region-plot", "--net", "net.json", "--box", "0"],
    ["report", "--N", "23,x"],
], ids=["box", "N"])
def test_malformed_number_list_is_usage_error(capsys, argv):
    """Parsed with the arguments, so the error names the option before any
    file is read."""
    rc = _cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {argv[-2]} takes" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# compile-cpwl
# ---------------------------------------------------------------------------


def test_compile_cpwl_and_verify(tmp_path):
    from cpwlrelu.cpwl import pieces_to_dict
    from helpers import random_max_affine

    rng = np.random.default_rng(5)
    f = random_max_affine(2, 3, rng)
    src = tmp_path / "cpwl.json"
    src.write_text(json.dumps(pieces_to_dict(f)))
    out = tmp_path / "net.json"
    assert main(["compile-cpwl", "--cpwl", str(src), "-o", str(out)]) == 0
    assert (
        main(["verify", "--net", str(out), "--against", "cpwl", "--cpwl", str(src)])
        == 0
    )


def _line_pieces_file(tmp_path, parts):
    """1D piece-list file on [0, 1] from ``(slope, left, right)`` pieces."""
    from cpwlrelu.cpwl import AffineFunc, CpwlPieces, pieces_to_dict

    f = CpwlPieces(
        1,
        [AffineFunc(np.array([k]), 0.0) for k, _, _ in parts],
        [(np.array([[-1.0], [1.0]]), np.array([-lo, hi])) for _, lo, hi in parts],
        (np.array([0.0]), np.array([1.0])),
    )
    src = tmp_path / "cpwl.json"
    src.write_text(json.dumps(pieces_to_dict(f)))
    return src


@pytest.mark.parametrize("parts, message", [
    # 0 and x on overlapping regions: they disagree on [0.3, 0.7].
    ([(0.0, 0.0, 0.7), (1.0, 0.3, 1.0)], "error: pieces disagree at"),
    # 0 and x on [0, 0.4] and [0.6, 1]: nothing covers the gap.
    ([(0.0, 0.0, 0.4), (1.0, 0.6, 1.0)], "error: regions do not cover"),
])
def test_cli_validates_piece_list_files(tmp_path, capsys, parts, message):
    src = _line_pieces_file(tmp_path, parts)
    out = tmp_path / "net.json"
    for route in ("order", "regions"):
        rc = _cli_main(["compile-cpwl", "--cpwl", str(src), "--route", route, "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith(message) and "Traceback" not in err, route
    assert not out.exists()
    save_network(ReluNetwork(1, [(np.zeros((1, 1)), np.zeros(1))]), str(out))
    rc = _cli_main(["verify", "--net", str(out), "--against", "cpwl", "--cpwl", str(src)])
    assert rc == 1 and capsys.readouterr().err.startswith(message)


def test_compile_cpwl_rejects_region_normals_of_the_wrong_width(tmp_path, capsys):
    src = _line_pieces_file(tmp_path, [(0.0, 0.0, 0.5), (1.0, 0.5, 1.0)])
    payload = json.loads(src.read_text())
    for half_space in payload["regions"][1]:
        half_space["n"].append(0.0)  # 2 entries in a 1-d piece list
    src.write_text(json.dumps(payload))
    rc = _cli_main(["compile-cpwl", "--cpwl", str(src), "-o", str(tmp_path / "net.json")])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith("error: region 1 normals have 2 entries, not dim = 1")


def test_compile_cpwl_rejects_region_normals_of_different_widths(tmp_path, capsys):
    src = _line_pieces_file(tmp_path, [(0.0, 0.0, 0.5), (1.0, 0.5, 1.0)])
    payload = json.loads(src.read_text())
    payload["regions"][1][1]["n"].append(0.0)  # beside a 1-entry normal
    src.write_text(json.dumps(payload))
    out = tmp_path / "net.json"
    rc = _cli_main(["compile-cpwl", "--cpwl", str(src), "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err and not out.exists()
    assert err.startswith("error: region 1 normals have 2 entries, not dim = 1 (half-space 1)")


def test_saved_files_are_json_dumps_of_their_dicts(tmp_path, rng):
    """``save_network``, ``save_mesh`` and ``save_pieces`` write exactly
    ``json.dumps`` of the ``*_to_dict`` of what they save."""
    from cpwlrelu.cpwl import save_pieces
    from cpwlrelu.mesh import save_mesh

    mesh = kuhn_cube_mesh(2)
    net, _ = compiler.compile_fem_deep(mesh, rng.normal(size=mesh.num_vertices))
    f = random_max_affine(2, 5, rng)
    for save, to_dict, obj in ((save_network, network_to_dict, net),
                               (save_mesh, mesh_to_dict, mesh),
                               (save_pieces, pieces_to_dict, f)):
        path = tmp_path / f"{save.__name__}.json"
        save(obj, str(path))
        assert path.read_text(encoding="utf-8") == json.dumps(to_dict(obj)), save.__name__


def test_compile_cpwl_network_bytes_pinned(tmp_path, capsys):
    """Validating the file changes neither the network bytes nor the points
    verify samples: those still come from the ``--seed`` generator."""
    import hashlib

    from cpwlrelu.cpwl import pieces_to_dict
    from helpers import random_max_affine, random_zigzag

    expected = {
        "maxaffine-d2m5": "e9e0953b1149fb89e032cf49f36aab3274185cb8e0e4d8882c52446f05fc59f7",
        "zigzag-m6": "2944cd4600d50c3710653aaf35ab55493ad9c1a7ad93410763d5dc097f0bde13",
    }
    for name, f in (("maxaffine-d2m5", random_max_affine(2, 5, np.random.default_rng(5))),
                    ("zigzag-m6", random_zigzag(6, np.random.default_rng(5)))):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(pieces_to_dict(f)))
        out = tmp_path / f"{name}-net.json"
        assert main(["compile-cpwl", "--cpwl", str(src), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected[name], name
        rc = _cli_main(["verify", "--net", str(out), "--against", "cpwl", "--cpwl", str(src),
                        "--samples", "200"])
        worst = json.loads(capsys.readouterr().out.splitlines()[-1])["worst_point"]
        X = f.sample_domain(200, np.random.default_rng(12345))
        assert rc == 0 and any(np.array_equal(x, worst) for x in X), name


# ---------------------------------------------------------------------------
# solve-bvp / report
# ---------------------------------------------------------------------------


def test_solve_bvp_outputs(tmp_path):
    state_path = tmp_path / "state.json"
    trace_path = tmp_path / "trace.json"
    net_path = tmp_path / "net.json"
    rc = main(
        [
            "solve-bvp",
            "--N", "9",
            "--max-iter", "3",
            "--init", "uniform",
            "--out", str(state_path),
            "--trace", str(trace_path),
            "--net", str(net_path),
        ]
    )
    assert rc == 0
    state = json.loads(state_path.read_text())
    assert len(state["t"]) == 9
    assert len(state["theta"]) == 8
    assert state["energy"] < 0
    trace = json.loads(trace_path.read_text())
    assert 1 <= len(trace) <= 3
    assert {"iter", "energy", "h1_error", "grad_norm"} <= set(trace[0])
    energies = [row["energy"] for row in trace]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    net = network_from_dict(json.loads(net_path.read_text()))
    assert net.input_dim == 1


def test_report_markdown_and_csv(tmp_path):
    md = tmp_path / "table.md"
    cs = tmp_path / "table.csv"
    rc = main(["report", "--N", "9,13", "--out", str(md), "--csv", str(cs)])
    assert rc == 0
    text = md.read_text()
    assert "| N " in text or "| N|" in text or "N |" in text
    with open(cs) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + two N values
    assert rows[0] == ["N", "err_uniform", "err_afem", "err_opt",
                       "energy_uniform", "energy_afem", "energy_opt"]
    for row in rows[1:]:
        vals = [float(x) for x in row[1:]]
        assert all(np.isfinite(vals))
        assert vals[0] > vals[2] > 0  # optimized beats uniform in H1 error


def test_format_table_md_unit():
    rows = [
        {
            "N": 9,
            "err_uniform": 0.5, "err_afem": 0.4, "err_opt": 0.3,
            "energy_uniform": -0.70, "energy_afem": -0.71, "energy_opt": -0.72,
        }
    ]
    text = _format_table_md(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("|")
    assert "9" in lines[2]
    assert "0.3" in lines[2]


# ---------------------------------------------------------------------------
# demo-region-plot
# ---------------------------------------------------------------------------


def test_region_plot_grid(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    dest = tmp_path / "regions.csv"
    rc = main(
        [
            "demo-region-plot",
            "--net", str(out),
            "--resolution", "21",
            "--box", "0,1",
            "-o", str(dest),
        ]
    )
    assert rc == 0
    grid = np.loadtxt(dest, delimiter=",")
    assert grid.shape == (21 * 21, 3)
    labels = np.unique(grid[:, 2])
    assert len(labels) > 1  # the hat structure induces several linear regions


def test_region_plot_labels_match_row_major_patterns(tmp_path):
    """Labels number the distinct activation patterns in order of first
    appearance; the oracle reads the patterns row by row, one point a row."""
    W0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -2.0]])
    b0 = np.array([0.1, -0.3, -0.2, 0.25])
    W1 = np.array([[1.0, -1.0, 0.5, 0.0], [0.0, 1.0, -1.0, 1.0]])
    net = ReluNetwork(2, [(W0, b0), (W1, np.array([0.0, -0.1])),
                          (np.array([[1.0, -1.0]]), np.zeros(1))])
    path = tmp_path / "tiny.json"
    save_network(net, str(path))
    dest = tmp_path / "regions.csv"
    rc = main(["demo-region-plot", "--net", str(path), "--resolution", "9",
               "--box=-1,1", "-o", str(dest)])
    assert rc == 0
    grid = np.loadtxt(dest, delimiter=",")
    X = grid[:, :2]
    h0 = np.maximum(X @ W0.T + b0, 0.0)
    h1 = np.maximum(h0 @ W1.T + [0.0, -0.1], 0.0)
    codes = np.hstack([h0 > 0, h1 > 0])
    first_seen = {}
    want = [first_seen.setdefault(c.tobytes(), len(first_seen)) for c in codes]
    assert grid.shape == (81, 3)
    assert len(first_seen) > 4
    assert np.array_equal(grid[:, 2], want)


# ---------------------------------------------------------------------------
# run report sidecar, --version, console script
# ---------------------------------------------------------------------------


def test_run_report_sidecar(tmp_path, mesh_file, coeff_file):
    report = tmp_path / "run.json"
    out = _compile(tmp_path, mesh_file, coeff_file, extra=["--report", str(report)])
    data = json.loads(report.read_text())
    assert data["command"] == "compile-fem"
    assert data["version"]["package"] == __version__
    assert str(mesh_file[0]) in data["inputs"]
    assert len(data["inputs"][str(mesh_file[0])]) == 64  # sha256 hex digest
    assert data["wall_time"] >= 0
    assert out.exists()


def test_version_flag():
    buf = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(buf):
        _cli_main(["--version"])
    assert exc.value.code == 0
    assert __version__ in buf.getvalue()


def test_version_schemas_match_what_the_serializers_write(rng):
    """``python -m cpwlrelu --version`` names the schema each of the four
    ``*_to_dict`` functions writes."""
    proc = subprocess.run([sys.executable, "-m", "cpwlrelu", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    assert line.startswith(f"cpwlrelu {__version__} (schemas: ") and line.endswith(")")
    schemas = json.loads(line[line.index("{"):-1])
    f = random_max_affine(2, 3, rng)
    written = {
        "mesh": mesh_to_dict(square_two_triangles()),
        "cpwl": pieces_to_dict(f),
        "lattice": lattice_to_dict(LatticeForm(f.pieces, [(0, 1), (2,)])),
        "network": network_to_dict(affine_network([1.0, 2.0], 0.5)),
    }
    assert schemas == {name: d["schema"] for name, d in written.items()}


def test_console_script_subprocess(tmp_path, mesh_file, coeff_file):
    out = _compile(tmp_path, mesh_file, coeff_file)
    proc = subprocess.run(
        [
            sys.executable, "-m", "cpwlrelu",
            "verify",
            "--net", str(out),
            "--against", "mesh",
            "--mesh", str(mesh_file[0]),
            "--coeffs", str(coeff_file[0]),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_square_mesh_compile_smoke(tmp_path, rng):
    mesh = square_two_triangles()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(mesh_to_dict(mesh)))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(rng.normal(size=4).tolist()))
    out = tmp_path / "n.json"
    rc = main(
        ["compile-fem", "--mesh", str(mpath), "--coeffs", str(cpath),
         "--pathway", "shallow", "-o", str(out)]
    )
    assert rc == 0


def test_deep_cli_roundtrip_on_16x16_grid(tmp_path, rng):
    """Compile, verify and structure-check the deep network of a 16x16-vertex
    grid (450 triangles): mesh validation must not dominate."""
    mesh = crisscross_mesh(np.linspace(0, 1, 16), np.linspace(0, 1, 16))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(mesh_to_dict(mesh)))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(rng.normal(size=mesh.num_vertices).tolist()))
    out = tmp_path / "n.json"
    assert main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(cpath),
                 "-o", str(out)]) == 0
    assert main(["verify", "--net", str(out), "--against", "mesh",
                 "--mesh", str(mpath), "--coeffs", str(cpath)]) == 0
    assert main(["check-structured", "--net", str(out)]) == 0


def test_shallow_cli_roundtrip_on_4x4_grid(tmp_path, rng):
    """Compile, verify and structure-check a shallow network whose hidden
    layers have millions of entries but few nonzeros."""
    mesh = crisscross_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(mesh_to_dict(mesh)))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(rng.normal(size=mesh.num_vertices).tolist()))
    out = tmp_path / "n.json"
    assert main(["compile-fem", "--mesh", str(mpath), "--coeffs", str(cpath),
                 "--pathway", "shallow", "-o", str(out)]) == 0
    assert main(["verify", "--net", str(out), "--against", "mesh",
                 "--mesh", str(mpath), "--coeffs", str(cpath)]) == 0
    assert main(["check-structured", "--net", str(out)]) == 0


# ---------------------------------------------------------------------------
# pinned run reports, one per subcommand
# ---------------------------------------------------------------------------


_REPORT_CASES = {
    "compile-fem": (["compile-fem", "--mesh", "mesh.json", "--coeffs", "coeffs.json",
                     "--pathway", "shallow", "-o", "fem-out.json"], 0),
    "compile-cpwl": (["compile-cpwl", "--cpwl", "cpwl.json", "--route", "regions",
                      "--seed", "7", "-o", "cpwl-out.json"], 0),
    "eval": (["eval", "--net", "fem.json", "--points", "points.csv", "-o", "values.csv"], 0),
    "verify-mesh": (["verify", "--net", "fem.json", "--against", "mesh", "--mesh", "mesh.json",
                     "--coeffs", "coeffs.json", "--samples", "50"], 0),
    "verify-cpwl": (["verify", "--net", "cpwl-net.json", "--against", "cpwl",
                     "--cpwl", "cpwl.json", "--samples", "50", "--tol", "1e-8"], 0),
    "verify-fails": (["verify", "--net", "cpwl-net.json", "--against", "mesh",
                      "--mesh", "mesh.json", "--coeffs", "coeffs.json", "--samples", "20"], 2),
    "quantize": (["quantize", "--net", "fem.json", "--grid", "0,2", "--include-first",
                  "-o", "quant.json"], 0),
    "check-structured": (["check-structured", "--net", "fem.json", "--grid", "0,2"], 0),
    "solve-bvp": (["solve-bvp", "--N", "9", "--max-iter", "3", "--init", "uniform",
                   "--out", "state.json", "--trace", "trace.json", "--net", "bvp-net.json"], 0),
    "report": (["report", "--N", "9,13", "--out", "table.md", "--csv", "table.csv"], 0),
    "demo-region-plot": (["demo-region-plot", "--net", "fem.json", "--resolution", "5",
                          "--box", "0,1", "-o", "regions.csv"], 0),
}

_BOUND_FEM = {"pathway": "shallow", "predicted_depth": 2, "actual_depth": 2,
              "predicted_size_bound": "750", "actual_size": 223,
              "d": 2, "kh": 6, "m": 8, "M": 54}
_BOUND_CPWL = {"pathway": "shallow", "predicted_depth": 2, "actual_depth": 2,
               "predicted_size_bound": "4802", "actual_size": 8,
               "d": 2, "kh": None, "m": 3, "M": 3}
_PINNED_REPORTS = {
    "compile-fem": {
        "command": "compile-fem", "inputs": ["coeffs.json", "mesh.json"],
        "config": {"pathway": "shallow", "seed": 12345},
        "results": {"bound": _BOUND_FEM,
                    "stats": {"hidden_layers": 2, "size": 223, "nonzero_params": 576},
                    "output": "fem-out.json"}},
    "compile-cpwl": {
        "command": "compile-cpwl", "inputs": ["cpwl.json"],
        "config": {"route": "regions", "seed": 7},
        "results": {"bound": _BOUND_CPWL,
                    "stats": {"hidden_layers": 2, "size": 8, "nonzero_params": 29},
                    "output": "cpwl-out.json"}},
    "eval": {
        "command": "eval", "inputs": ["fem.json", "points.csv"],
        "config": {"seed": 12345}, "results": {"points": 2}},
    "verify-mesh": {
        "command": "verify", "inputs": ["coeffs.json", "fem.json", "mesh.json"],
        "config": {"against": "mesh", "samples": 50, "tol": 1e-09, "seed": 12345},
        "results": {"passed": True, "max_abs_diff": 2.22044605e-16,
                    "worst_point": [0.82364674, 0.184334831], "samples": 50,
                    "tol": 1e-09}},
    "verify-cpwl": {
        "command": "verify", "inputs": ["cpwl-net.json", "cpwl.json"],
        "config": {"against": "cpwl", "samples": 50, "tol": 1e-08, "seed": 12345},
        "results": {"passed": True, "max_abs_diff": 2.22044605e-16,
                    "worst_point": [0.721102635, 0.858675603], "samples": 50,
                    "tol": 1e-08}},
    "verify-fails": {
        "command": "verify", "inputs": ["coeffs.json", "cpwl-net.json", "mesh.json"],
        "config": {"against": "mesh", "samples": 20, "tol": 1e-09, "seed": 12345},
        "results": {"passed": False, "max_abs_diff": 0.899703095,
                    "worst_point": [0.936967002, 0.127081732], "samples": 20,
                    "tol": 1e-09}},
    "quantize": {
        "command": "quantize", "inputs": ["fem.json"],
        "config": {"grid": [0, 2], "include_first": True, "seed": 12345},
        "results": {"changed_entries": 39, "output": "quant.json"}},
    "check-structured": {
        "command": "check-structured", "inputs": ["fem.json"],
        "config": {"grid": [0, 2], "tol": 0.0, "seed": 12345},
        "results": {"passed": True, "vacuous": False, "checked_layers": [1, 2, 3],
                    "checked_params": 90, "violations": []}},
    "solve-bvp": {
        "command": "solve-bvp", "inputs": [],
        "config": {"N": 9, "eta": 0.5, "max_iter": 3, "init": "uniform", "seed": 12345},
        "results": {"energy": -0.642382689, "h1_error": 0.449191339,
                    "converged": False, "stalled": False, "iterations": 3}},
    "report": {
        "command": "report", "inputs": [],
        "config": {"N": [9, 13], "seed": 12345},
        "results": {"rows": [
            {"N": 9, "err_uniform": 0.649253986, "err_afem": 0.394712885,
             "err_opt": 0.2896877, "energy_uniform": -0.532523219,
             "energy_afem": -0.665423201, "energy_opt": -0.70132846},
            {"N": 13, "err_uniform": 0.481125618, "err_afem": 0.233111722,
             "err_opt": 0.201835738, "energy_uniform": -0.627544242,
             "energy_afem": -0.716158715, "energy_opt": -0.722917003}]}},
    "demo-region-plot": {
        "command": "demo-region-plot", "inputs": ["fem.json"],
        "config": {"resolution": 5, "box": [0.0, 1.0], "seed": 12345},
        "results": {"patterns": 24}},
}


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    """Input files of the pinned run-report cases, in one directory."""
    from cpwlrelu.compiler import compile_cpwl_shallow, compile_fem_deep
    from cpwlrelu.cpwl import pieces_to_dict
    from helpers import random_max_affine

    d = tmp_path_factory.mktemp("reports")
    mesh = crisscross_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    coeffs = np.linspace(-1.0, 1.0, mesh.num_vertices)
    f = random_max_affine(2, 3, np.random.default_rng(5))
    (d / "mesh.json").write_text(json.dumps(mesh_to_dict(mesh)))
    (d / "coeffs.json").write_text(json.dumps(coeffs.tolist()))
    (d / "cpwl.json").write_text(json.dumps(pieces_to_dict(f)))
    np.savetxt(d / "points.csv", [[0.25, 0.25], [0.5, 0.75]], delimiter=",")
    save_network(compile_fem_deep(mesh, coeffs)[0], str(d / "fem.json"))
    save_network(compile_cpwl_shallow(f)[0], str(d / "cpwl-net.json"))
    return d


def _rounded(obj):
    """Floats to 9 significant digits, so last-bit noise does not count."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


@pytest.mark.parametrize("case", sorted(_REPORT_CASES))
def test_run_report_pinned(report_dir, monkeypatch, case):
    """Each subcommand's ``--report`` JSON: the command, the input files and
    their SHA-256, the configuration echo, the results and the exit code.
    Run inside the input directory, so every path is a bare file name."""
    import hashlib

    monkeypatch.chdir(report_dir)
    argv, code = _REPORT_CASES[case]
    assert main([*argv, "--report", f"{case}.report.json"]) == code
    data = json.loads((report_dir / f"{case}.report.json").read_text())
    assert data.pop("wall_time") >= 0 and data.pop("version")["package"] == __version__
    for name, digest in data["inputs"].items():
        assert digest == hashlib.sha256((report_dir / name).read_bytes()).hexdigest(), name
    data["inputs"] = sorted(data["inputs"])
    assert _rounded(data) == _PINNED_REPORTS[case]


def test_run_report_hashes_every_input_file_given(report_dir, monkeypatch):
    """``inputs`` holds every input file given, used or not; ``config`` holds
    the other options."""
    monkeypatch.chdir(report_dir)
    assert main(["verify", "--net", "fem.json", "--against", "mesh", "--mesh", "mesh.json",
                 "--coeffs", "coeffs.json", "--cpwl", "cpwl.json", "--samples", "20",
                 "--report", "unused.report.json"]) == 0
    data = json.loads((report_dir / "unused.report.json").read_text())
    assert sorted(data["inputs"]) == ["coeffs.json", "cpwl.json", "fem.json", "mesh.json"]
    assert data["config"] == {"against": "mesh", "samples": 20, "tol": 1e-9, "seed": 12345}
