import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddsemi import cli
from ddsemi.cli import (DEFAULTS, KEYS, ConfigError, _merge_config, _write_report_csv,
                        build_parser, load_config, main, make_decomposition,
                        make_problem, parse_h, validate_config)
from ddsemi.iterations import IterationRow, MethodReport
from ddsemi.mesh import build_rect_mesh, cell_counts, decompose_vertical
from ddsemi.oracle import atomic_write


def run_cli(*argv):
    return main(list(argv))


def parse_interface(text):
    return KEYS["interface"][1]("interface", text)


class TestConfigParsing:
    def test_parse_h_fractions(self):
        assert parse_h("1/64") == 1 / 64
        assert parse_h("0.25") == 0.25

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("""
# convergence study
problem = example1
h = 1/8          # desk scale
s = 0.4
""")
        cfg = load_config(path)
        assert cfg == {"problem": "example1", "h": "1/8", "s": "0.4"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 3\n")
        from ddsemi.cli import ConfigError

        with pytest.raises(ConfigError):
            load_config(path)

    def test_problem_factory(self):
        assert make_problem("example1").name == "cubic-reaction"
        assert make_problem("example2-plaplace").kind == "quasilinear-plaplace"
        assert make_problem("example2").kind == "quasilinear-plaplace"

    def test_custom_problem_loader(self):
        prob = make_problem("custom:ddsemi.problems:linear_problem")
        assert prob.name == "linear-reaction"

    def test_interface_specs(self):
        mesh = build_rect_mesh(3, 2, 0.5)
        d1 = make_decomposition(mesh, parse_interface("vertical:1.5"))
        assert d1.n_interface == 3
        d2 = make_decomposition(mesh, parse_interface("staircase:1.5,0;1.5,1;2,1;2,2"))
        assert d2.n_interface == 4

    @pytest.mark.parametrize("text, spec", [
        ("vertical:1.5", ("vertical", 1.5)),
        ("vertical: 3/2 ", ("vertical", 1.5)),
        ("staircase:3/2,0;1.5,1; 2,1;2,2;", ("staircase", ((1.5, 0.0), (1.5, 1.0),
                                                          (2.0, 1.0), (2.0, 2.0)))),
    ])
    def test_interface_is_parsed_once_into_numbers(self, text, spec):
        assert parse_interface(text) == spec

    @pytest.mark.parametrize("text", ["vertical:", "vertical:abc", "vertical:1/0",
                                      "staircase:1.5,0;1.5", "staircase:1,2,3",
                                      "horizontal:1", "staircase:1.5,0;1.5,x"])
    def test_malformed_interface_is_a_configuration_error(self, text):
        with pytest.raises(ConfigError):
            parse_interface(text)

    def test_full_scale_flag_respects_explicit_h(self):
        from ddsemi.cli import FULL_MESHES, _merge_config, build_parser

        parser = build_parser()
        cfg = _merge_config(parser.parse_args(["run", "--full-scale"]))
        assert cfg["h"] == FULL_MESHES
        cfg = _merge_config(parser.parse_args(["run", "--full-scale", "--h", "1/8"]))
        assert cfg["h"] == "1/8"

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_every_key_is_a_flag_of_every_command(self, command):
        parser = build_parser()
        for key in KEYS:
            flag = "--" + key.replace("_", "-")
            if key == "full_scale":
                argv, expected = [flag], "on"
            else:
                argv, expected = [flag, f"v-{key}"], f"v-{key}"
            cfg = _merge_config(parser.parse_args([command, *argv]))
            assert cfg[key] == expected, flag

    def test_readme_configuration_table_matches_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
        keys = set()
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            key_cell, default_cell = line.split("|")[1:3]
            row_keys = re.findall(r"`([^`]*)`", key_cell)
            defaults = re.findall(r"`([^`]*)`", default_cell) or [""]
            keys.update(row_keys)
            if len(defaults) == 1:
                defaults = defaults * len(row_keys)
            if len(defaults) == len(row_keys):  # skips the per-problem `s` cell
                assert dict(zip(row_keys, defaults)) == {k: DEFAULTS[k] for k in row_keys}
        assert keys == set(DEFAULTS)


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "example1", "--method", "dn",
                       "--h", "1/8", "--output-dir", str(out), "--no-timing")
        assert code == 0
        csv = (out / "dn_h8.csv").read_text().splitlines()
        assert csv[0] == "n,error,residual,newton1,newton2,seconds"
        errors = [float(line.split(",")[1]) for line in csv[1:]]
        assert errors[-1] < 1e-8
        assert errors[5:] == sorted(errors[5:], reverse=True)  # decreasing tail
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["method"] == "dn"
        assert summary[0]["converged"] is True
        assert 0 < summary[0]["fitted_L"] < 1

    def test_run_from_reference_stays_small(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "example1", "--method", "dn",
                       "--h", "1/8", "--eta0", "reference",
                       "--output-dir", str(out), "--no-timing")
        assert code == 0
        csv = (out / "dn_h8.csv").read_text().splitlines()
        errors = [float(line.split(",")[1]) for line in csv[1:]]
        assert max(errors) < 1e-9

    def test_bitwise_reproducible_without_timing(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli("run", "--problem", "example1", "--method", "dn",
                           "--h", "1/8", "--output-dir", str(out), "--no-timing")
            assert code == 0
            outs.append((out / "dn_h8.csv").read_bytes()
                        + (out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_all_methods_deterministic_across_runs_and_workers(self, tmp_path):
        # each workspace keeps its own solve history, so neither a second run
        # nor running the methods on two threads, whose workspaces share one
        # geometry per side, can change a byte of the output
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            code = run_cli("run", "--problem", "example1", "--method", "all",
                           "--h", "1/8", "--workers", workers,
                           "--output-dir", str(out), "--no-timing")
            assert code == 0
            outs.append({f: (out / f).read_bytes() for f in
                         ("dn_h8.csv", "rr_h8.csv", "nn_h8.csv", "summary.json")})
        assert outs[0] == outs[1] == outs[2]

    def test_csv_without_timing_leaves_report_intact(self, tmp_path):
        rows = [IterationRow(n, 0.5 ** n, 1.0, 2, 3, 1.25 + n) for n in range(3)]
        report = MethodReport("dn", rows, "converged")
        path = tmp_path / "dn.csv"
        _write_report_csv(report, str(path), timing=False)
        assert [row.seconds for row in report.rows] == [1.25, 2.25, 3.25]
        assert report.rows is rows
        seconds = [line.split(",")[-1] for line in path.read_text().splitlines()[1:]]
        assert all(float(x) == 0.0 for x in seconds)

    @pytest.mark.parametrize("data", ["{}\n", b"\x00\x01"])
    def test_failed_replace_leaves_no_temp_file(self, tmp_path, data):
        # replacing a directory fails after the temporary file is written
        (tmp_path / "summary.json").mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write(str(tmp_path / "summary.json"), data)
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = example1\nmethod = dn\nh = 1/4\ns = 0.9\n")
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(cfg), "--s", "0.36",
                       "--output-dir", str(out), "--no-timing")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["s"] == 0.36  # CLI flag wins over config value

    def test_unknown_problem_exits_2(self, tmp_path):
        assert run_cli("run", "--problem", "examplX", "--h", "1/8",
                       "--output-dir", str(tmp_path / "o")) == 2

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("definitely not a config\n")
        assert run_cli("run", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("argv", [
        ("run", "--h", "0"),
        ("run", "--h", "1/0"),
        ("run", "--s", "abc"),
        ("run", "--stop-tol", "-1"),
        ("run", "--eta0", "maybe"),
        ("sweep", "--s-values", "0.1,abc"),
        ("run", "--stop-tol", "inf"),
        ("run", "--newton-tol", "inf"),
        ("run", "--s", "inf"),
        ("run", "--width", "inf"),
        ("sweep", "--s-values", "0.3,nan"),
        ("run", "--h", "1e400"),
        ("run", "--h", "1/4", "--interface", "vertical:1e400"),
    ])
    def test_malformed_values_exit_2(self, tmp_path, argv):
        assert run_cli(*argv, "--output-dir", str(tmp_path / "o")) == 2

    def test_non_dividing_mesh_size_exits_2_before_any_work(self, tmp_path, capsys):
        # 0.3 does not divide the 3 x 2 rectangle: no mesh is solved before
        # the run stops, so no CSV is written
        assert run_cli("run", "--h", "1/8,0.3", "--output-dir", str(tmp_path / "o")) == 2
        assert "h=0.3 does not divide" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_interface_off_a_later_lattice_exits_2_before_any_work(self, tmp_path, capsys):
        # x = 1.25 is a mesh line at h = 1/8 but not at h = 1/10: nothing is
        # solved, so no CSV, no reference cache and no summary is written
        out = tmp_path / "o"
        assert run_cli("run", "--method", "dn", "--h", "1/8,1/10",
                       "--interface", "vertical:1.25", "--output-dir", str(out)) == 2
        assert "'vertical:1.25' is off the lattice of h=0.1" in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("problem", ["example2", "example2-plaplace"])
    def test_example2_alias_gets_the_p_laplace_relaxation(self, problem):
        assert validate_config(dict(DEFAULTS, problem=problem))["s"] == 0.31

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            validate_config(dict(DEFAULTS, workers=workers))

    def test_undecodable_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"\xff\xfe\x00h = 1/4\n")
        assert run_cli("run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")) == 2

    def test_malformed_sweep_key_in_config_fails_run(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("s_count = 1.5\nh = 1/4\n")
        assert run_cli("run", "--config", str(cfg),
                       "--output-dir", str(tmp_path / "o")) == 2

    def test_bad_degree_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("degree = 3\nh = 1/4\n")
        assert run_cli("run", "--config", str(cfg),
                       "--output-dir", str(tmp_path / "o")) == 2

    def test_solver_failure_exits_1(self, tmp_path):
        # a custom problem with negative diffusion trips the assembly probe
        assert run_cli("run", "--problem", "custom:tests.badprob:negative_alpha",
                       "--h", "1/4", "--output-dir", str(tmp_path / "o")) == 1

    def test_nn_on_plaplace_flags_non_converged(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "example2", "--method", "nn",
                       "--h", "1/8", "--output-dir", str(out), "--no-timing")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["non_converged"] is True
        assert summary[0]["converged"] is False


class TestSweepCommand:
    def test_geometric_grid(self):
        from ddsemi.cli import DEFAULTS, ConfigError, _sweep_grid

        cfg = dict(DEFAULTS)
        cfg.update(s_values="", s_min="0.1", s_max="0.9", s_count="5")
        grid = _sweep_grid(validate_config(cfg))
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(0.9)
        ratios = np.diff(np.log(grid))
        assert np.allclose(ratios, ratios[0])  # geometric spacing
        cfg.update(s_min="0.9", s_max="0.1")
        with pytest.raises(ConfigError):
            _sweep_grid(validate_config(cfg))

    def test_sweep_table(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--problem", "example1", "--method", "dn",
                       "--h", "1/4", "--s-values", "0,0.36,0.6,2.5",
                       "--sweep-tol", "1e-6", "--stop-tol", "1e-10",
                       "--output-dir", str(out), "--no-timing")
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "s,iterations_to_tol,converged,final_error,status"
        table = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert table[0.0][4] == "no-progress"
        assert table[0.36][2] == "true"
        assert table[2.5][4] in ("diverged", "failed")
        data = json.loads((out / "sweep.json").read_text())
        assert data["best_s"] in (0.36, 0.6)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        results = []
        for name, workers in (("ser", "1"), ("par", "3")):
            out = tmp_path / name
            code = run_cli("sweep", "--problem", "example1", "--method", "dn",
                           "--h", "1/4", "--s-values", "0.3,0.45,0.6",
                           "--workers", workers, "--output-dir", str(out),
                           "--no-timing")
            assert code == 0
            results.append((out / "sweep.csv").read_bytes())
        assert results[0] == results[1]


class TestCompareCommand:
    def test_compare_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("compare", "--problem", "example1", "--h", "1/8",
                       "--max-iter", "300", "--output-dir", str(out), "--no-timing")
        assert code == 0
        lines = (out / "compare_h8.csv").read_text().splitlines()
        assert lines[0] == "n,error_dn,error_rr,error_nn"
        summaries = json.loads((out / "summary.json").read_text())
        methods = {s["method"]: s for s in summaries}
        assert set(methods) == {"dn", "rr", "nn"}
        assert methods["dn"]["converged"]
        # DN reaches 1e-6 before RR on the same mesh
        dn_errs = []
        rr_errs = []
        for line in lines[1:]:
            cells = line.split(",")
            dn_errs.append(float(cells[1]) if cells[1] else np.inf)
            rr_errs.append(float(cells[2]) if cells[2] else np.inf)
        first_dn = next(i for i, e in enumerate(dn_errs) if e <= 1e-6)
        first_rr = next(i for i, e in enumerate(rr_errs) if e <= 1e-6)
        assert first_dn < first_rr

    def test_compare_from_reference_all_stationary(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("compare", "--problem", "example1", "--h", "1/4",
                       "--eta0", "reference", "--output-dir", str(out),
                       "--no-timing")
        assert code == 0
        summaries = json.loads((out / "summary.json").read_text())
        for s in summaries:
            assert s["final_error"] < 1e-8, s["method"]

    def test_compare_parallel_matches_serial(self, tmp_path):
        blobs = []
        for name, workers in (("ser", "1"), ("par", "3")):
            out = tmp_path / name
            code = run_cli("compare", "--problem", "example1", "--h", "1/4",
                           "--workers", workers, "--output-dir", str(out),
                           "--no-timing")
            assert code == 0
            blobs.append((out / "compare_h4.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        # a stand-in pool records its size and maps serially: no thread starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        return sizes

    @pytest.mark.parametrize("workers, size", [(64, 3), (3, 3), (2, 2)])
    def test_pool_is_capped_at_the_usable_cpus(self, pools, workers, size):
        assert cli._map(lambda x: 2 * x, range(5), workers) == [0, 2, 4, 6, 8]
        assert pools == [size]

    def test_run_maps_its_methods_on_the_pool(self, pools, tmp_path, capsys):
        # one pool per mesh; lines and summary keep the method order
        out = tmp_path / "o"
        assert run_cli("run", "--method", "all", "--h", "1/4,1/2", "--workers", "2",
                       "--output-dir", str(out), "--no-timing") == 0
        assert pools == [2, 2]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            [m, f"h={h}:"] for h in ("0.25", "0.5") for m in ("dn", "rr", "nn")]
        summary = json.loads((out / "summary.json").read_text())
        assert [(s["method"], s["h"]) for s in summary] == [
            (m, h) for h in (0.25, 0.5) for m in ("dn", "rr", "nn")]

    def test_one_worker_runs_serially(self, pools):
        assert cli._map(lambda x: x + 1, [1, 2], 1) == [2, 3]
        assert pools == []


def verdict(check, *args):
    """True when check(*args) returns, False when it raises a ValueError
    (ConfigError and the mesh errors are ValueErrors)."""
    try:
        check(*args)
    except ValueError:
        return False
    return True


class TestOneLatticeRule:
    # x = 1.5 + offset at h = 1/256, that is 384 + offset * 256 cells; a
    # rectangle two cells high keeps the meshes small
    @pytest.mark.parametrize("offset, on", [(1e-10, True), (1e-6, False)])
    def test_every_check_gives_one_verdict(self, offset, on):
        h, x = 1 / 256, 1.5 + offset
        mesh = build_rect_mesh(3, 2 * h, h)
        cfg = dict(DEFAULTS, width="3", height=repr(2 * h), h="1/256",
                   interface=f"vertical:{x!r}")
        assert [verdict(cell_counts, x, 2 * h, h), verdict(mesh.node_id, x, 0.0),
                verdict(decompose_vertical, mesh, x), verdict(validate_config, cfg)] == [on] * 4


# Texts of numbers up to 3, on and off the lattices of the drawn mesh sizes:
# multiples of 1/4 as fractions or decimals, thirds, and decimals a little
# off a multiple of 1/4.
_QUARTERS = st.integers(1, 11).map("{}/4".format)
_COORD = st.one_of(_QUARTERS, _QUARTERS, _QUARTERS,
                   st.integers(0, 6).map(lambda k: repr(k / 2)),
                   st.integers(1, 8).map("{}/3".format),
                   st.builds(lambda k, e: repr(k / 4 + e), st.integers(0, 12),
                             st.sampled_from([1e-12, -1e-12, 1e-7, 0.01])))
_STAIRCASE = st.lists(st.tuples(_COORD, _COORD), max_size=5).map(
    lambda points: "staircase:" + ";".join(f"{x},{y}" for x, y in points))


@st.composite
def _axis_path(draw):
    """staircase text of a path that climbs from the bottom side to the top
    side ("top", for the drawn height) by alternate vertical and horizontal
    segments with corners from _COORD: valid unless a corner is off a
    lattice or outside the rectangle, or two corners coincide."""
    xs = draw(st.lists(_COORD, min_size=1, max_size=3))
    ys = draw(st.lists(_COORD, min_size=len(xs) - 1, max_size=len(xs) - 1))
    ys = ["0"] + sorted(ys, key=Fraction) + ["top"]
    points = [p for x, y0, y1 in zip(xs, ys, ys[1:]) for p in ((x, y0), (x, y1))]
    return "staircase:" + ";".join(f"{x},{y}" for x, y in points)


class TestConfigurationProperty:
    """validate_config raises ConfigError exactly when some listed h cannot
    build its mesh or the interface's decomposition; no solve runs."""

    @settings(max_examples=200, deadline=None)
    @given(width=st.sampled_from(["1", "2", "3", "1.5"]), height=st.sampled_from(["1", "2"]),
           hs=st.lists(st.sampled_from(["1/4", "1/2", "0.25", "1/8", "1/3", "0.3"]),
                       min_size=1, max_size=2),
           interface=st.one_of(st.builds("vertical:{}".format, _COORD), _STAIRCASE,
                               _axis_path(), _axis_path()))
    @example("3", "2", ["1/4", "1/8"], "vertical:3/2")
    @example("3", "2", ["1/4", "1/8"], "staircase:1.5,0;1.5,1;2,1;2,top")
    @example("3", "2", ["1/4", "1/8"], "staircase:1.5,0;1.5,1;2.125,1;2.125,top")
    @example("3", "2", ["1/8", "1/10"], "vertical:1.25")
    def test_validation_matches_every_build(self, width, height, hs, interface):
        interface = interface.replace("top", height)
        cfg = dict(DEFAULTS, width=width, height=height, h=",".join(hs), interface=interface)
        spec = parse_interface(interface)

        def build(h):
            mesh = build_rect_mesh(float(width), float(height), float(Fraction(h)))
            make_decomposition(mesh, spec)

        assert verdict(validate_config, cfg) == all(verdict(build, h) for h in hs)
