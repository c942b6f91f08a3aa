"""Command-line interface: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hypmet.metrics
from hypmet.cli import run
from hypmet.lobachevsky import lobachevsky
from hypmet.metrics import cov_complex, volume_of_metric
from hypmet.triangulation import build_complex, load_triangulation

TWO_PI = 2 * math.pi


def fig8_path(fixtures_dir):
    return str(fixtures_dir / "fig8.json")


def double_path(fixtures_dir):
    return str(fixtures_dir / "double_tet.json")


class TestValidate:
    def test_double_tet(self, fixtures_dir):
        code, report = run(["validate", "--triangulation", double_path(fixtures_dir)])
        assert code == 0
        assert report["edges"] == 6
        assert report["vertices"] == 4
        assert report["closed"] is True
        assert len(report["edge_table"]) == 6
        assert all(len(row["instances"]) == 2 for row in report["edge_table"])

    def test_fig8(self, fixtures_dir):
        code, report = run(["validate", "--triangulation", fig8_path(fixtures_dir)])
        assert code == 0
        assert report["edges"] == 2 and report["vertices"] == 1 and report["closed"]


class TestSolve:
    def test_fig8_ideal_acceptance_invocation(self, fixtures_dir):
        code, report = run(
            [
                "solve",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                "[6.283185307,6.283185307]",
            ]
        )
        assert code == 0
        assert report["volume"] == pytest.approx(2.0298832128193078, abs=1e-6)
        assert report["converged"] is True

    def test_curvature_equals_cone_angle_route(self, fixtures_dir):
        kk = 2 * math.pi - 2 * math.acos(2 / 3)
        curv = json.dumps([kk] * 6)
        cone = json.dumps([2 * math.acos(2 / 3)] * 6)
        code1, rep1 = run(
            ["solve", "--flavor", "hyper", "--triangulation", double_path(fixtures_dir), "--curvature", curv]
        )
        code2, rep2 = run(
            ["solve", "--flavor", "hyper", "--triangulation", double_path(fixtures_dir), "--cone-angles", cone]
        )
        assert code1 == code2 == 0
        # the two targets lie about an ulp apart; dk/dl is about 0.52 at this
        # solution, so the lengths may differ by the targets' and the two
        # solves' residuals over 0.5
        dk = np.max(np.abs(np.subtract(rep1["cone_angles"], rep2["cone_angles"])))
        slack = dk + rep1["residuals"]["cone_angle"] + rep2["residuals"]["cone_angle"]
        assert np.max(np.abs(np.subtract(rep1["lengths"], rep2["lengths"]))) <= slack / 0.5
        assert np.allclose(rep1["lengths"], math.acosh(2.0), atol=1e-8)

    def test_determinism_byte_identical(self, fixtures_dir):
        argv = [
            "solve",
            "--flavor",
            "ideal",
            "--triangulation",
            fig8_path(fixtures_dir),
            "--cone-angles",
            json.dumps([TWO_PI, TWO_PI]),
            "--seed",
            "3",
        ]
        _, rep1 = run(argv)
        _, rep2 = run(argv)
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_both_targets_rejected(self, fixtures_dir):
        code, report = run(
            [
                "solve",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                "[6.28,6.28]",
                "--curvature",
                "[0,0]",
            ]
        )
        assert code == 1
        assert report["error"]["code"] == "malformed_input"


class TestOtherCommands:
    def test_angles(self, fixtures_dir):
        code, report = run(
            [
                "angles",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--lengths",
                "[0.0, 0.0]",
            ]
        )
        assert code == 0
        assert np.allclose(report["angles"], math.pi / 3)
        assert np.allclose(report["cone_angles"], TWO_PI)
        assert np.allclose(report["curvature"], 0.0)

    def test_volume(self, fixtures_dir):
        code, report = run(
            [
                "volume",
                "--flavor",
                "hyper",
                "--triangulation",
                double_path(fixtures_dir),
                "--lengths",
                json.dumps([math.acosh(2.0)] * 6),
            ]
        )
        assert code == 0
        assert report["volume"] == pytest.approx(2 * 2.3695937312240587, abs=1e-8)

    def test_volume_of_long_edges(self, fixtures_dir):
        # the angles of these lengths round to vertex sums of pi; the volume
        # comes from the lengths, so they are not rejected as type III
        code, report = run(
            [
                "volume",
                "--flavor",
                "hyper",
                "--triangulation",
                double_path(fixtures_dir),
                "--lengths",
                json.dumps([40.0] * 6),
            ]
        )
        assert code == 0
        assert report["volume"] == pytest.approx(2 * 3 * lobachevsky(math.pi / 3), abs=1e-12)

    def test_max_angles(self, fixtures_dir):
        code, report = run(
            [
                "max-angles",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                json.dumps([TWO_PI, TWO_PI]),
            ]
        )
        assert code == 0
        assert np.allclose(report["angles"], math.pi / 3, atol=1e-7)

    def test_classify(self, fixtures_dir):
        code, report = run(
            [
                "classify",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                json.dumps([TWO_PI, TWO_PI]),
            ]
        )
        assert code == 0
        assert [v["verdict"] for v in report["verdicts"]] == ["realized", "realized"]

    def test_hyper_angles_of_long_edges(self, fixtures_dir):
        flat = [math.pi, 0.0, 0.0, math.pi, 0.0, 0.0]
        for lengths, want in (
            ([400, 1, 1, 400, 1, 1], [flat, flat]),
            ([800] * 6, [[math.pi / 3] * 6] * 2),
        ):
            code, report = run(
                [
                    "angles",
                    "--flavor",
                    "hyper",
                    "--triangulation",
                    double_path(fixtures_dir),
                    "--lengths",
                    json.dumps(lengths),
                ]
            )
            assert code == 0
            assert np.allclose(report["angles"], want, atol=1e-12)

    def test_hyper_lengths_beyond_range_are_a_numerical_failure(self, fixtures_dir):
        code, report = run(
            [
                "volume",
                "--flavor",
                "hyper",
                "--triangulation",
                double_path(fixtures_dir),
                "--lengths",
                json.dumps([800, 1, 1, 1, 1, 1]),
            ]
        )
        assert code == 3
        assert report["error"]["code"] == "numerical_failure"

    @pytest.mark.parametrize(
        "command, lengths",
        [("volume", [1e13, 1, 1, 1, 1, 1]), ("angles", [1e13, 1, 1, 1, 1, 1]), ("angles", [800, 1, 1, 1, 1, 1])],
    )
    def test_hyper_lengths_beyond_range_fail_in_both_commands(self, fixtures_dir, command, lengths):
        # the kernel gives such rows NaN; the commands report a numerical failure
        code, report = run(
            [command, "--flavor", "hyper", "--triangulation", double_path(fixtures_dir),
             "--lengths", json.dumps(lengths)]
        )
        assert code == 3
        assert report["error"]["code"] == "numerical_failure"

    def test_hyper_rigidity_random_starts_without_warnings(self, fixtures_dir):
        # random starts take long trial steps; none may overflow or warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run(
                [
                    "rigidity",
                    "--flavor",
                    "hyper",
                    "--triangulation",
                    fig8_path(fixtures_dir),
                    "--cone-angles",
                    "[3.4655165393653427, 2.3732909431833145]",
                    "--starts",
                    "10",
                    "--seed",
                    "15",
                ]
            )
        assert code == 0
        assert report["ok"] is True

    @pytest.mark.parametrize(
        "name, flavor, lengths",
        [("double_tet", "hyper", [math.acosh(2.0)] * 6), ("fig8", "ideal", [0.1, -0.2])],
    )
    def test_volume_evaluates_the_kernel_once(self, fixtures_dir, monkeypatch, name, flavor, lengths):
        # the volume, covolume and cone angles come from one kernel record
        kernel = "hyper_kernel" if flavor == "hyper" else "ideal_kernel"
        calls = []
        inner = getattr(hypmet.metrics, kernel)

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(hypmet.metrics, kernel, counting)
        path = str(fixtures_dir / f"{name}.json")
        code, report = run(
            ["volume", "--flavor", flavor, "--triangulation", path, "--lengths", json.dumps(lengths)]
        )
        assert code == 0 and len(calls) == 1
        c = build_complex(load_triangulation(path))
        cov, k = cov_complex(c, lengths, flavor)
        assert report["covolume"] == cov and report["cone_angles"] == k.tolist()
        assert report["volume"] == volume_of_metric(c, lengths, flavor)

    def test_volume_keeps_hyper_lengths_positive(self, fixtures_dir):
        lengths = json.dumps([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        argv = ["--flavor", "hyper", "--triangulation", double_path(fixtures_dir), "--lengths", lengths]
        code, report = run(["volume", *argv])
        assert code == 1 and "strictly positive" in report["error"]["message"]

    @pytest.mark.parametrize("lengths", ["[1e308,1e308]", "[5e307,5e307]", "[-1e308,-1e308]"])
    def test_ideal_lengths_near_the_float_limit(self, fixtures_dir, lengths):
        # the angles stay pi/3; a covolume beyond the double range is a
        # numerical failure, never a NaN or Infinity in a report
        argv = ["--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir), "--lengths", lengths]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run(["angles", *argv])
            assert code == 0
            assert np.allclose(report["angles"], math.pi / 3, rtol=0.0, atol=1e-15)
            json.dumps(report, allow_nan=False)
            code, report = run(["volume", *argv])
            assert code == 3 and report["error"]["code"] == "numerical_failure"

    def test_ideal_covolume_inside_the_double_range_is_reported(self, fixtures_dir):
        argv = ["--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir), "--lengths", "[1e307,1e307]"]
        code, report = run(["volume", *argv])
        assert code == 0
        # two tetrahedra, each 2 sum_p (Lambda(pi/3) + (pi/3) 1e307)
        assert report["covolume"] == pytest.approx(4 * math.pi * 1e307, rel=1e-15)
        assert report["volume"] == pytest.approx(6 * lobachevsky(math.pi / 3), abs=1e-15)

    def test_rigidity(self, fixtures_dir):
        code, report = run(
            [
                "rigidity",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                json.dumps([TWO_PI, TWO_PI]),
                "--starts",
                "3",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert report["ok"] is True


class TestErrorPaths:
    def test_missing_file(self):
        code, report = run(["validate", "--triangulation", "no_such_file.json"])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"

    def test_directory_as_triangulation(self, tmp_path):
        code, report = run(["validate", "--triangulation", str(tmp_path)])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"

    def test_triangulation_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"tets": 1, "gluings": [], "name": "caf\u00e9"}'.encode("latin-1"))
        code, report = run(["validate", "--triangulation", str(path)])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"

    @pytest.mark.parametrize("face", [0.9, 1.5, "0", False])
    def test_gluing_fields_must_be_integers(self, fixtures_dir, tmp_path, face):
        data = json.loads(Path(double_path(fixtures_dir)).read_text())
        data["gluings"][0]["face"] = face
        path = tmp_path / "non_integer_face.json"
        path.write_text(json.dumps(data))
        code, report = run(["validate", "--triangulation", str(path)])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"
        assert "JSON integers" in report["error"]["message"]

    @pytest.mark.parametrize("lengths", ["[1,", "[NaN, 0]"])
    def test_lengths_that_are_not_finite_json_numbers(self, fixtures_dir, lengths):
        # invalid JSON, and a non-finite entry, which Python's JSON reads
        code, report = run(
            ["angles", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
             "--lengths", lengths]
        )
        assert code == 1
        assert report["error"]["code"] == "malformed_input"

    def test_unwritable_output_is_a_json_error(self, fixtures_dir, tmp_path, capsys):
        from hypmet.cli import main

        for out in (tmp_path / "missing" / "x.json", tmp_path):
            argv = ["validate", "--triangulation", fig8_path(fixtures_dir), "--output", str(out)]
            assert main(argv) == 1
            report = json.loads(capsys.readouterr().out)
            assert report["error"]["code"] == "malformed_input"
            assert str(out) in report["error"]["message"]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "entry",
        ["true", "false", '"6.283185307179586"', "null", "[6.28]", "1" + "0" * 400],
        ids=["true", "false", "string", "null", "array", "huge-int"],
    )
    def test_vector_entries_must_be_numbers(self, fixtures_dir, entry):
        argv = ["solve", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir)]
        code, report = run(argv + ["--cone-angles", f"[{entry}, 6.283185307179586]"])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"
        assert "numbers" in report["error"]["message"]

    def test_integer_entries_read_as_numbers(self, fixtures_dir):
        argv = ["angles", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir)]
        assert run(argv + ["--lengths", "[0, 1]"]) == run(argv + ["--lengths", "[0.0, 1.0]"])

    def test_negative_seed_is_malformed(self, fixtures_dir):
        argv = ["rigidity", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
                "--cone-angles", json.dumps([TWO_PI, TWO_PI]), "--starts", "2", "--seed"]
        code, report = run(argv + ["-1"])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"
        assert "seed" in report["error"]["message"]
        assert run(argv + ["0"])[0] == 0

    def test_malformed_vector(self, fixtures_dir):
        code, report = run(
            [
                "solve",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                "[1.0]",
            ]
        )
        assert code == 1

    def test_target_off_vertex_sum_exit_two(self, fixtures_dir):
        argv = ["solve", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir), "--cone-angles"]
        code, report = run(argv + [json.dumps([TWO_PI + 1e-8] * 2)])
        assert code == 2
        assert report["error"]["code"] == "infeasible"
        assert "vertex sum" in report["error"]["message"]
        code, report = run(argv + [json.dumps([TWO_PI + 1e-10] * 2)])
        assert code == 0

    def test_infeasible_target_exit_two(self, fixtures_dir):
        code, report = run(
            [
                "solve",
                "--flavor",
                "ideal",
                "--triangulation",
                fig8_path(fixtures_dir),
                "--cone-angles",
                json.dumps([6 * math.pi, 6 * math.pi]),
            ]
        )
        assert code == 2
        assert report["error"]["code"] == "infeasible"

    @pytest.mark.parametrize("command", ["solve", "rigidity"])
    @pytest.mark.parametrize("flavor", ["ideal", "hyper"])
    def test_out_of_reach_target_exit_two(self, fixtures_dir, command, flavor):
        # cone angles of 1e308 are beyond pi times any valence: refused as
        # infeasible before the descent, whose objective they would overflow,
        # with no warning and a report that parses strictly
        argv = [command, "--flavor", flavor, "--triangulation", fig8_path(fixtures_dir),
                "--cone-angles", "[1e308,1e308]"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run(argv)
        assert code == 2
        assert report["error"]["code"] == "infeasible"
        json.dumps(report, allow_nan=False)

    def test_rigidity_without_starts_is_malformed(self, fixtures_dir):
        argv = ["rigidity", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
                "--cone-angles", json.dumps([TWO_PI, TWO_PI]), "--starts"]
        code, report = run(argv + ["0"])
        assert code == 1
        assert report["error"]["code"] == "malformed_input"
        assert "start" in report["error"]["message"]
        code, report = run(argv + ["1"])
        assert code == 0 and len(report["iterations"]) == 1

    @pytest.mark.parametrize("command", ["solve", "rigidity"])
    @pytest.mark.parametrize("option", [["--tol", "0"], ["--tol=-1e-9"], ["--tol", "nan"],
                                        ["--max-iter", "-1"]])
    def test_bad_solver_options_are_malformed(self, fixtures_dir, command, option):
        # the start already solves this target, so a spin would end in exit 3
        code, report = run(
            [command, "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
             "--cone-angles", json.dumps([TWO_PI, TWO_PI])] + option
        )
        assert code == 1
        assert report["error"]["code"] == "malformed_input"
        name = option[0].split("=")[0].lstrip("-").replace("-", "_")
        assert report["error"]["message"].startswith(name)

    def test_timings_flag_adds_timings(self, fixtures_dir):
        argv = ["validate", "--triangulation", fig8_path(fixtures_dir)]
        _, plain = run(argv)
        _, timed = run(argv + ["--timings"])
        assert "timings" not in plain
        assert "timings" in timed

    def test_output_flag_writes_file(self, fixtures_dir, tmp_path, capsys):
        from hypmet.cli import main

        out = tmp_path / "report.json"
        code = main(
            ["validate", "--triangulation", fig8_path(fixtures_dir), "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["edges"] == 2
        assert capsys.readouterr().out == ""

    def test_help_prints_help_only(self, capsys):
        from hypmet.cli import main

        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: hypmet")
        assert "error" not in out
        assert run(["--help"]) == (0, None)

    def test_output_path_comes_from_parsed_arguments(self, fixtures_dir, tmp_path, capsys):
        from hypmet.cli import main

        # the = form and an unambiguous prefix of --output both name the file
        out = tmp_path / "report.json"
        for option in ([f"--output={out}"], ["--outp", str(out)]):
            assert main(["validate", "--triangulation", fig8_path(fixtures_dir)] + option) == 0
            assert json.loads(out.read_text())["edges"] == 2
            assert capsys.readouterr().out == ""
            out.unlink()

    def test_iteration_budget_failure_carries_diagnostics(self, fixtures_dir):
        # a round-trip target the descent cannot reach in one iteration
        l_star = [0.3, -0.3]
        _, angles = run(
            ["angles", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
             "--lengths", json.dumps(l_star)]
        )
        k = angles["cone_angles"]
        argv = ["solve", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
                "--cone-angles", json.dumps(k)]
        code, report = run(argv + ["--max-iter", "1"])
        assert code == 3
        error = report["error"]
        assert error["code"] == "numerical_failure"
        assert set(error["diagnostics"]) == {"grad_norm", "objective", "flavor"}
        assert error["diagnostics"]["flavor"] == "ideal"
        assert error["diagnostics"]["grad_norm"] > 1e-9
        json.dumps(report, allow_nan=False)
        # with the default budget the same target solves, and its report has no diagnostics
        code, report = run(argv)
        assert code == 0 and "error" not in report
        assert report["lengths"] == pytest.approx([0.3, -0.3], abs=1e-7)

    def test_line_search_failure_carries_diagnostics(self, fixtures_dir, monkeypatch):
        import hypmet.metrics
        from hypmet.ideal import ideal_angle_stage

        calls = []

        def failing(l):
            # the start point evaluates; every trial point is out of range:
            # its labels are replaced by labels past the kernel's range, which
            # the angle stage marks as not closed and whose covolume, outside
            # the double range, the volume stage gives as NaN
            calls.append(1)
            return ideal_angle_stage(l if len(calls) == 1 else np.full_like(l, 1e308))

        # the descent's one angle-stage call per point
        monkeypatch.setattr(hypmet.metrics, "ideal_angle_stage", failing)
        # a positive-feasible fig8 target (the cone angles sum to 4 pi) other than the start
        code, report = run(
            ["solve", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
             "--cone-angles", "[8.6, 3.966370614359172]"]
        )
        assert code == 3
        diagnostics = report["error"]["diagnostics"]
        assert set(diagnostics) == {"grad_norm", "objective", "iteration"}
        assert diagnostics["iteration"] == 1
        # 50 halvings after the start point's call; the objective is the start's
        assert len(calls) == 51 and math.isfinite(diagnostics["objective"])

    def test_one_parser_serves_many_commands(self, fixtures_dir):
        # reports of successive in-process calls equal those of fresh processes
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        commands = [
            ["angles", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
             "--lengths", "[0.2,-0.1]"],
            ["validate", "--triangulation", double_path(fixtures_dir)],
            ["rigidity", "--flavor", "hyper", "--triangulation", double_path(fixtures_dir),
             "--cone-angles", json.dumps([2 * math.acos(2.0 / 3.0)] * 6), "--starts", "2"],
            ["angles", "--flavor", "ideal", "--triangulation", fig8_path(fixtures_dir),
             "--lengths", "[0.5,0.0]"],
        ]
        in_process = [run(argv) for argv in commands]
        for argv, (code, report) in zip(commands, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "hypmet.cli"] + argv,
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == code == 0
            assert json.loads(proc.stdout) == report
        # help still prints only the help and exits 0 after the parser is built
        assert run(["--help"]) == (0, None)
        assert run(["solve", "--help"]) == (0, None)
        assert run(["angles", "--flavor", "ideal"])[0] == 1

    def test_closed_pipe_ends_without_traceback(self, fixtures_dir):
        # the read end is closed before the interpreter has even imported
        # hypmet, so writing the report meets a broken pipe
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        argv = [sys.executable, "-m", "hypmet.cli", "volume", "--flavor", "ideal"]
        argv += ["--triangulation", fig8_path(fixtures_dir), "--lengths", "[0.1,-0.1]"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err
