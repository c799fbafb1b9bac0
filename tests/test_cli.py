import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaussmeter import capacity, cli
from gaussmeter.cli import format_sweep_csv, load_matrix_file, main
from gaussmeter.capacity import SweepPoint, sweep_one_mode

ER_UNIT = 0.9182958340544896


def write_matrix(path, re, im=None, s=1):
    doc = {"s": s, "re": re}
    if im is not None:
        doc["im"] = im
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def unit_files(tmp_path):
    lam = write_matrix(tmp_path / "lam.json", [[1.0]])
    noise = write_matrix(tmp_path / "noise.json", [[1.0]])
    return lam, noise


class TestErGauge:
    def test_unit_case(self, unit_files, capsys):
        lam, noise = unit_files
        assert main(["er-gauge", "--lambda", lam, "--noise", noise]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "1"
        assert doc["base"] == "bits"
        assert doc["er"] == pytest.approx(ER_UNIT, abs=1e-6)
        assert doc["ntilde"]["re"][0][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert doc["k"]["re"][0][0] == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)

    def test_vacuum_input(self, tmp_path, capsys):
        lam = write_matrix(tmp_path / "lam.json", [[0.0]])
        noise = write_matrix(tmp_path / "noise.json", [[5.0]])
        assert main(["er-gauge", "--lambda", lam, "--noise", noise]) == 0
        assert json.loads(capsys.readouterr().out)["er"] == 0.0

    def test_two_decoupled_modes(self, tmp_path, capsys):
        lam = write_matrix(tmp_path / "lam.json", [[1.0, 0.0], [0.0, 1.0]], s=2)
        noise = write_matrix(tmp_path / "noise.json", [[1.0, 0.0], [0.0, 1.0]], s=2)
        assert main(["er-gauge", "--lambda", lam, "--noise", noise]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["er"] == pytest.approx(2.0 * ER_UNIT, abs=1e-6)

    def test_nats_flag(self, unit_files, capsys):
        lam, noise = unit_files
        assert main(["er-gauge", "--lambda", lam, "--noise", noise,
                     "--base", "nats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["er"] == pytest.approx(ER_UNIT * math.log(2.0), abs=1e-6)

    def test_invalid_matrix_exits_2(self, tmp_path, capsys):
        lam = tmp_path / "bad.json"
        lam.write_text('{"s": 1, "re": [[1.0, 2.0]]}')
        noise = write_matrix(tmp_path / "noise.json", [[1.0]])
        assert main(["er-gauge", "--lambda", str(lam), "--noise", noise]) == 2
        assert "row 0" in capsys.readouterr().err
        for text in ('{"s": 1, "re": [1.0]}', '{"s": 1, "re": [["a"]]}',
                     '{"s": [1], "re": [[1.0]]}', '{"s": 1.5, "re": [[1.0]]}',
                     '{"s": true, "re": [[1.0]]}', '{"s": "2", "re": [[1.0]]}'):
            lam.write_text(text)
            assert main(["er-gauge", "--lambda", str(lam), "--noise", noise]) == 2
            assert str(lam) in capsys.readouterr().err

    def test_unparsable_json_exits_2(self, tmp_path, capsys):
        lam = tmp_path / "bad.json"
        lam.write_text("{not json")
        noise = write_matrix(tmp_path / "noise.json", [[1.0]])
        assert main(["er-gauge", "--lambda", str(lam), "--noise", noise]) == 2
        assert "line" in capsys.readouterr().err


class TestErGeneral:
    def test_matched_isotropic(self, tmp_path, capsys):
        alpha = write_matrix(tmp_path / "a.json", (1.5 * np.eye(2)).tolist())
        beta = write_matrix(tmp_path / "b.json", (1.5 * np.eye(2)).tolist())
        assert main(["er-general", "--alpha", alpha, "--beta", beta]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["er"] == pytest.approx(ER_UNIT, abs=1e-9)
        assert doc["spectrum_alpha"] == pytest.approx([1.5])
        assert doc["alpha_tilde"]["re"][0][0] == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_vacuum_input(self, tmp_path, capsys):
        alpha = write_matrix(tmp_path / "a.json", (0.5 * np.eye(2)).tolist())
        beta = write_matrix(tmp_path / "b.json", (1.5 * np.eye(2)).tolist())
        assert main(["er-general", "--alpha", alpha, "--beta", beta]) == 0
        assert json.loads(capsys.readouterr().out)["er"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_squeezed_regression(self, tmp_path, capsys):
        alpha = write_matrix(tmp_path / "a.json", [[2.0, 0.0], [0.0, 0.5]])
        beta = write_matrix(tmp_path / "b.json", (1.5 * np.eye(2)).tolist())
        assert main(["er-general", "--alpha", alpha, "--beta", beta]) == 0
        doc = json.loads(capsys.readouterr().out)
        # pinned after validation against the Fock engine (oracle agreement 3e-3)
        assert doc["er"] == pytest.approx(0.6466166348885304, abs=1e-9)

    def test_inadmissible_exits_2(self, tmp_path, capsys):
        alpha = write_matrix(tmp_path / "a.json", (0.25 * np.eye(2)).tolist())
        beta = write_matrix(tmp_path / "b.json", (1.5 * np.eye(2)).tolist())
        assert main(["er-general", "--alpha", alpha, "--beta", beta]) == 2

    def test_singular_sum_exits_3(self, tmp_path, capsys):
        # extreme squeezing: admissible, but alpha + beta is numerically singular
        squeezed = np.diag([1e6, 0.25 / 1e6]).tolist()
        alpha = write_matrix(tmp_path / "a.json", squeezed)
        beta = write_matrix(tmp_path / "b.json", squeezed)
        assert main(["er-general", "--alpha", alpha, "--beta", beta]) == 3
        assert "condition" in capsys.readouterr().err


class TestCapacity:
    def test_one_mode(self, unit_files, capsys):
        _, noise = unit_files
        assert main(["capacity", "--noise", noise, "--epsilon", noise,
                     "--energy", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cea"] == pytest.approx(ER_UNIT, abs=1e-6)
        assert doc["optimizer_lambda"]["re"][0][0] == pytest.approx(1.0, abs=1e-9)
        assert doc["energy_used"] == pytest.approx(1.0, abs=1e-9)
        assert doc["converged"] is True

    def test_two_mode_decoupled(self, tmp_path, capsys):
        noise = write_matrix(tmp_path / "n.json", np.eye(2).tolist(), s=2)
        eps = write_matrix(tmp_path / "e.json", np.eye(2).tolist(), s=2)
        assert main(["capacity", "--noise", noise, "--epsilon", eps,
                     "--energy", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cea"] == pytest.approx(2.0 * ER_UNIT, abs=1e-6)
        assert doc["c_unassisted"] is None
        assert doc["converged"] is True
        assert doc["gap"] <= capacity.GAP_TOL

    def test_capped_run_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(capacity, "MAX_ITER", 2)
        noise = write_matrix(tmp_path / "n.json", np.diag([0.0, 1.0]).tolist(), s=2)
        eps = write_matrix(tmp_path / "e.json", np.diag([1.0, 2.0]).tolist(), s=2)
        assert main(["capacity", "--noise", noise, "--epsilon", eps,
                     "--energy", "2.0"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["gap"] > capacity.GAP_TOL

    def test_zero_energy_exits_2(self, unit_files, capsys):
        _, noise = unit_files
        assert main(["capacity", "--noise", noise, "--epsilon", noise,
                     "--energy", "0.0"]) == 2

    def test_infinite_energy_exits_2(self, unit_files, capsys):
        _, noise = unit_files
        assert main(["capacity", "--noise", noise, "--epsilon", noise,
                     "--energy", "inf"]) == 2
        assert "energy budget must be positive and finite" in capsys.readouterr().err


class TestSweep:
    def write_spec(self, tmp_path, **overrides):
        doc = {
            "N": [0.0, 1.0, 10.0],
            "E": {"min": 1e-2, "max": 1e2, "count": 13, "scale": "log"},
            "base": "bits",
        }
        doc.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_csv_and_svg(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--svg", str(svg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,E,C_ea,C,G"
        assert len(lines) == 1 + 3 * 13
        assert svg.read_text().startswith("<svg")
        for line in lines[1:]:
            noise, energy, cea, c, g = (float(v) for v in line.split(","))
            assert cea >= c

    def test_round_trip_idempotent(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--spec", spec, "--out", str(out)])
        text = out.read_text()
        lines = text.splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            rebuilt.append(",".join(f"{v:.11e}" for v in values))
        assert "\n".join(rebuilt) + "\n" == text

    def test_single_row(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path, N=[0.0], E={"min": 1.0, "max": 1.0, "count": 1}
        )
        assert main(["sweep", "--spec", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        noise, energy, cea, c, g = (float(v) for v in lines[1].split(","))
        assert (cea, c, g) == pytest.approx((2.0, 1.0, 2.0), abs=1e-9)

    def test_stdout_matches_formatter(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path, N=[1.0], E={"min": 0.5, "max": 2.0, "count": 3}
        )
        assert main(["sweep", "--spec", spec]) == 0
        expected = format_sweep_csv(
            sweep_one_mode([1.0], list(np.geomspace(0.5, 2.0, 3)))
        )
        assert capsys.readouterr().out == expected

    def test_output_bytes_pinned(self, tmp_path):
        # digests of the CSV and the SVG recorded before both writers were
        # rewritten; seven noises wrap the six chart colours
        spec = self.write_spec(
            tmp_path, N=[30.0, 0.0, 0.5, 1.0, 3.0, 10.0, 100.0],
            E={"min": 1e-3, "max": 1e3, "count": 40, "scale": "log"},
        )
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--svg", str(svg)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "29225f294944c3fc38eef512daebe54f7662a0bdf5377dde0b9b8decb23d53f0")
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "9413ea2f0cf6bfb518f47c0f46571905b2b32f18760a8b1f068c4941ec36f865")

    def test_single_energy_bytes_pinned(self, tmp_path):
        # one energy makes every log-energy equal, so the chart widens its x
        # range by one decade; digests recorded before the chart's points
        # were computed as arrays
        spec = self.write_spec(
            tmp_path, N=[3.0, 0.0, 0.5], E={"min": 2.0, "max": 2.0, "count": 1},
        )
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--svg", str(svg)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "60b595b3072cc8bf709942d6da8b25a53b1eb2e181531bf3f6b7665dd82e69fd")
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "73ed9208951e76c04a06da7f7953be1505b7471245973a31c5925e2e6ad3e721")

    def sweep_digests(self, tmp_path, **overrides):
        spec = self.write_spec(tmp_path, **overrides)
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--svg", str(svg)]) == 0
        return (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(svg.read_bytes()).hexdigest())

    def test_signed_zero_and_duplicate_bytes_pinned(self, tmp_path):
        # -0.0 keeps its own CSV text but shares 0.0's curve, and a repeated
        # noise repeats its rows; digests recorded before the writers took
        # columns
        digests = self.sweep_digests(
            tmp_path, N=[0.0, -0.0, 1.0, 1.0],
            E={"min": 1e-2, "max": 1e2, "count": 9, "scale": "log"})
        assert digests == (
            "14f10fdd216661ad2713a2d123ca16b8c59ef5dd3d187a5e2ca2c2a078859054",
            "4ec0e57c78851f6be31f1fcd727f56ceab19fd37d7f9cad88d7e629056a1b1ee")

    def test_one_point_bytes_pinned(self, tmp_path):
        digests = self.sweep_digests(
            tmp_path, N=[2.5], E={"min": 0.7, "max": 0.7, "count": 1})
        assert digests == (
            "c86bcfa7347427b53a7849d63a21b375c305c6dce287c3d7afa5707861fcefe4",
            "d4d9cc9ae0e3e3b0c6b0020df94a777cb0576810357f91cebb541487377bb6b2")

    def test_unsorted_rows_bytes_pinned(self):
        # rows in no order, with both signed zeros in N and G, go to the
        # formatter as they are
        rows = [SweepPoint(noise, energy, math.log1p(energy) / (noise + 1.0),
                           energy / 3.0, -energy * noise)
                for noise in (3.0, -0.0, 1.0, 0.0) for energy in (2.0, 0.25, 1.0)]
        text = format_sweep_csv(rows)
        assert text.splitlines()[4].startswith("-0.00000000000e+00,2.00000000000e+00,")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ce7957530f90aa624f64212151cb6eeecd7656d6accfe6054c86727bce78d4b3")
        assert format_sweep_csv([]) == "N,E,C_ea,C,G\n"

    def test_large_noise_chart(self, tmp_path):
        # the assisted capacity read 0 here, and the chart divided by a zero
        # y range
        spec = self.write_spec(
            tmp_path, N=[1e16, 1e17], E={"min": 1.0, "max": 1.0, "count": 1})
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--svg", str(svg)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[-1]) == pytest.approx(2.0 * math.log(2.0),
                                                               rel=1e-10)
        assert "nan" not in svg.read_text()
        # a zero y range widens to one unit, as a zero x range does
        flat = cli._svg_chart(np.array([1.0]), np.array([2.0]), np.array([0.0]))
        assert "nan" not in flat and ">1.00</text>" in flat

    @pytest.mark.parametrize("noise", [1e300, 1e10])
    def test_underflowed_capacity_exits_3(self, tmp_path, capsys, noise):
        spec = self.write_spec(
            tmp_path, N=[1.0, noise], E={"min": 1e-300, "max": 1.0, "count": 3})
        assert main(["sweep", "--spec", spec, "--svg", str(tmp_path / "s.svg")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: unassisted capacity")

    def test_large_sweep_builds_no_rows(self, tmp_path):
        # 100 000 points: the CSV round-trips, and the traced peak stays well
        # below the 43.7 MB that building one SweepPoint per row took; the
        # columns read 33.6 MB.  The chart is left out: under tracemalloc it
        # would double the test's time
        spec = self.write_spec(
            tmp_path, N=np.linspace(0.0, 20.0, 40).tolist(),
            E={"min": 1e-3, "max": 1e3, "count": 2500, "scale": "log"})
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--spec", spec, "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 38e6
        text = out.read_text()
        rows = [SweepPoint(*map(float, line.split(",")))
                for line in text.splitlines()[1:]]
        assert len(rows) == 40 * 2500
        assert format_sweep_csv(rows) == text

    def test_repeat_after_verify_is_identical(self, tmp_path, monkeypatch, capsys):
        # main resolves the subcommand through the module on every call, so a
        # replaced cmd_sweep is reached, and a verify run in between leaves
        # the sweep's bytes as they were
        calls = []
        original = cli.cmd_sweep

        def counted(args):
            calls.append(args.spec)
            return original(args)

        monkeypatch.setattr(cli, "cmd_sweep", counted)
        spec = self.write_spec(tmp_path)
        outputs = []
        for run in range(2):
            out, svg = tmp_path / f"sweep-{run}.csv", tmp_path / f"sweep-{run}.svg"
            assert main(["sweep", "--spec", spec, "--out", str(out),
                         "--svg", str(svg)]) == 0
            outputs.append((out.read_bytes(), svg.read_bytes()))
            if run == 0:
                assert main(["verify", "--case", "cp", "--seed", "7"]) == 0
        assert outputs[0] == outputs[1]
        assert calls == [spec, spec]
        assert "PASS" in capsys.readouterr().out

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, E={"min": 0.0, "max": 1.0, "count": 3})
        assert main(["sweep", "--spec", spec]) == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: ")
        grid = {"min": 1.0, "max": 2.0, "count": 3}
        path = tmp_path / "bad-spec.json"
        no_count = {"min": 1.0, "max": 2.0}
        docs = [{"N": [1.0]}, {"E": grid}, {"N": [1.0], "E": no_count},
                {"N": [1.0], "E": {**grid, "scale": "Log"}}, {"N": 1.0, "E": grid}]
        # a count that is no integer; a max that is not positive and finite,
        # on either scale (numpy warned on the log scale, and an in-process
        # call raised that warning under the suite's filter)
        docs += [{"N": [1.0], "E": {**grid, "count": count}}
                 for count in (2.5, True, "3")]
        docs += [{"N": [1.0], "E": {**grid, "max": emax, "scale": scale}}
                 for emax in (-1.0, 0.0, math.inf, math.nan)
                 for scale in ("log", "linear")]
        docs.append({"N": [1.0], "E": {**grid, "min": math.inf}})
        for doc in docs:
            path.write_text(json.dumps(doc))
            assert main(["sweep", "--spec", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: ")
        # 1e400 parses as inf
        path.write_text('{"N": [1.0], "E": {"min": 1.0, "max": 1e400, "count": 3}}')
        assert main(["sweep", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        path.write_text("{not json")
        assert main(["sweep", "--spec", str(path)]) == 2
        assert f"{path}: invalid JSON at line 1, column 2" in capsys.readouterr().err


class TestVerify:
    def test_cp_case(self, capsys):
        assert main(["verify", "--case", "cp", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "cp" in out and "PASS" in out

    def test_module_entry_point(self):
        # ``python -m gaussmeter`` from a checkout, without an install
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "gaussmeter", "verify", "--case", "cp"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "cp" in done.stdout and "PASS" in done.stdout

    def test_library_imports_no_scipy(self):
        # numpy is the only dependency: a fresh interpreter that imports the
        # library, the CLI, the Fock engine and the verify suites loads no
        # scipy module (the tests and the benchmark import it themselves)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys\n"
                 "import gaussmeter, gaussmeter.cli, gaussmeter.fockoracle, gaussmeter.verify\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_posterior_case(self, capsys):
        assert main(["verify", "--case", "lemma1", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "lemma1" in out and "PASS" in out

    def test_thread_cap_env(self, monkeypatch):
        from gaussmeter.verify import thread_cap

        monkeypatch.setenv("GAUSSMETER_THREADS", "2")
        assert thread_cap() == 2
        monkeypatch.setenv("GAUSSMETER_THREADS", "not-a-number")
        assert thread_cap() == 1
        monkeypatch.delenv("GAUSSMETER_THREADS")
        assert thread_cap() == 1

    def test_correspondence_case(self, capsys):
        assert main(["verify", "--case", "correspondence", "--seed", "7"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_deterministic_report(self, capsys):
        assert main(["verify", "--case", "cp", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--case", "cp", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


def test_load_matrix_file_complex(tmp_path):
    path = write_matrix(
        tmp_path / "m.json", [[1.0, 0.3], [0.3, 2.0]], im=[[0.0, 0.2], [-0.2, 0.0]],
        s=2,
    )
    matrix, modes = load_matrix_file(path, side=1)
    assert modes == 2
    assert matrix[0, 1] == pytest.approx(0.3 + 0.2j)


def test_load_matrix_file_rejects_nested_entries(tmp_path):
    path = write_matrix(tmp_path / "m.json", [[[1.0, 0.0], [0.0, 1.0]]] * 2, s=2)
    with pytest.raises(ValueError, match="entries must be numbers"):
        load_matrix_file(path, side=1)


def test_load_matrix_file_size_mismatch(tmp_path):
    path = write_matrix(tmp_path / "m.json", [[1.0]], s=2)
    with pytest.raises(ValueError, match="requires"):
        load_matrix_file(path, side=1)
