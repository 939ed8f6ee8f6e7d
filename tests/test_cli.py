"""Tests for the command-line front end: configuration resolution, exit
codes, file layout, and byte-level determinism of outputs."""

import numpy as np
import pytest

from reprogram_lab import cli
from reprogram_lab.cli import main, parse_config
from reprogram_lab.errors import ConfigError
from reprogram_lab.numerics import SeededRng
from reprogram_lab.reprogram import ProgramImage, image_from_text, image_to_text
from reprogram_lab.verify import available_cpus


def run_cli(args):
    return main(list(args))


def read_without_runtime(path):
    return "\n".join(
        line for line in path.read_text().splitlines()
        if not line.startswith("runtime_seconds")
    )


class TestParseConfig:
    def test_defaults_and_env_seed(self, monkeypatch):
        monkeypatch.delenv("REPROGRAM_LAB_SEED", raising=False)
        values = parse_config("verify-theorem2", [])
        assert values["seed"] == 97531
        assert values["datasets"] == 50
        monkeypatch.setenv("REPROGRAM_LAB_SEED", "440")
        values = parse_config("verify-theorem2", [])
        assert values["seed"] == 440

    def test_explicit_seed_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPROGRAM_LAB_SEED", "440")
        values = parse_config("verify-theorem2", ["--seed", "7"])
        assert values["seed"] == 7

    def test_config_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ndatasets = 9\nd = 3\n")
        values = parse_config(
            "verify-theorem2", ["--config", str(cfg), "--d", "5"]
        )
        assert values["datasets"] == 9
        assert values["d"] == 5  # command line wins

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="valid commands"):
            parse_config("no-such-thing", [])

    def test_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("verify-theorem2", ["--bogus", "1"])

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="datasets"):
            parse_config("verify-theorem2", ["--datasets", "many"])

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="amount"):
            parse_config("combine-image", ["--program_file", "a", "--image_file", "b"])

    def test_theorem1_derived_defaults(self):
        values = parse_config("verify-theorem1", [])
        assert values["rho"] == pytest.approx(4096**0.3)
        assert values["tau"] == pytest.approx(4096**-0.2)
        assert values["workers"] == available_cpus()
        assert parse_config("sweep-corollary1", [])["workers"] == available_cpus()

    def test_d_list_parsing(self):
        values = parse_config("sweep-corollary1", ["--d_list", "16,32,64"])
        assert values["d_list"] == (16, 32, 64)


class TestExitCodes:
    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["definitely-not-a-command"]) == 2
        assert "valid commands" in capsys.readouterr().err

    def test_config_error_exits_2(self):
        assert run_cli(["verify-theorem2", "--nonsense", "1"]) == 2

    def test_passing_suite_exits_0(self, tmp_path):
        code = run_cli([
            "verify-appendix-a", "--partition_trials", "400",
            "--sv_trials", "30", "--output_dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "verify-appendix-a.verdict.txt").exists()

    def test_theorem2_default_config_passes(self, tmp_path):
        # the documented defaults are the full 50-dataset configuration
        code = run_cli(["verify-theorem2", "--output_dir", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "verify-theorem2.verdict.txt").read_text()
        assert "passed = true" in text

    def test_failing_suite_exits_1(self, tmp_path):
        code = run_cli([
            "verify-theorem2", "--datasets", "2", "--max_steps", "1",
            "--output_dir", str(tmp_path / "out"),
        ])
        assert code == 1
        text = (tmp_path / "out" / "verify-theorem2.verdict.txt").read_text()
        assert "passed = false" in text

    def test_invalid_parameter_value_exits_2(self, tmp_path):
        code = run_cli([
            "verify-corollary2", "--loss_kind", "hinge",
            "--output_dir", str(tmp_path / "out"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command,key", [
        ("verify-theorem2", "datasets"),
        ("verify-appendix-a", "partition_trials"),
        ("verify-appendix-a", "sv_trials"),
        ("verify-proposition", "trials"),
        ("verify-theorem1", "workers"),
        ("sweep-corollary1", "workers"),
    ])
    def test_zero_evidence_is_a_config_error(self, tmp_path, capsys, command, key):
        # a suite with no runs or no trials must neither pass nor crash
        code = run_cli([command, f"--{key}", "0", "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / f"{command}.verdict.txt").exists()

    def test_help_exits_0(self):
        assert run_cli(["--help"]) == 0

    def test_linalg_error_is_an_error_not_a_config_error(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which the CLI reports as a
        # configuration error; a failing factorisation is the library's
        def broken_suite(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(cli, "appendix_a_suite", broken_suite)
        code = run_cli(["verify-appendix-a", "--output_dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: LinAlgError: Matrix is not positive definite" in err
        assert "configuration error" not in err

    def test_square_singular_value_shape_writes_a_verdict(self, tmp_path):
        # sv_k = sv_d = 100: a square 100x100 weight matrix per trial
        code = run_cli([
            "verify-appendix-a", "--sv_d", "100", "--sv_k", "100",
            "--partition_trials", "100", "--sv_trials", "200",
            "--output_dir", str(tmp_path / "out"),
        ])
        assert code in (0, 1)
        text = (tmp_path / "out" / "verify-appendix-a.verdict.txt").read_text()
        assert "measured.sv_failure_rate" in text


class TestOutputs:
    def test_every_output_starts_with_config_echo(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_cli([
            "train-flow", "--max_steps", "500", "--output_dir", str(out),
            "--seed", "9",
        ])
        assert code == 0
        produced = sorted(p.name for p in out.iterdir())
        assert produced == [
            "final_weights.txt", "summary.txt", "trajectory.csv",
        ]
        for path in out.iterdir():
            first = path.read_text().splitlines()[0]
            assert first == "# command = train-flow"

    def test_no_files_outside_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only_here"
        run_cli([
            "construct-program", "--d", "16", "--k", "4",
            "--output_dir", str(out), "--seed", "3",
        ])
        top_level = {p.name for p in tmp_path.iterdir()}
        assert top_level == {"only_here"}

    def test_verdict_determinism_modulo_runtime(self, tmp_path):
        args = [
            "verify-appendix-a", "--partition_trials", "300", "--sv_trials", "25",
            "--seed", "12",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--output_dir", str(out_a)]) == 0
        assert run_cli(args + ["--output_dir", str(out_b)]) == 0
        file_a = out_a / "verify-appendix-a.verdict.txt"
        file_b = out_b / "verify-appendix-a.verdict.txt"
        # identical bytes apart from the runtime_seconds line (and the
        # echoed output_dir, which is the only differing parameter)
        lines_a = [
            l for l in file_a.read_text().splitlines()
            if not l.startswith("runtime_seconds") and not l.startswith("# output_dir")
        ]
        lines_b = [
            l for l in file_b.read_text().splitlines()
            if not l.startswith("runtime_seconds") and not l.startswith("# output_dir")
        ]
        assert lines_a == lines_b

    def test_sweep_writes_csv_with_header(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli([
            "sweep-corollary1", "--d_list", "16,64", "--trials", "60",
            "--output_dir", str(out), "--seed", "4",
        ])
        csv_lines = (out / "corollary1_sweep.csv").read_text().splitlines()
        data_lines = [l for l in csv_lines if not l.startswith("#")]
        assert data_lines[0] == "d,k,rho,tau,tau_clamped,accuracy,stderr"
        assert len(data_lines) == 3
        assert code in (0, 1)  # tiny trial counts may not show the trend

    def test_construct_program_artifacts(self, tmp_path):
        out = tmp_path / "prog"
        assert run_cli([
            "construct-program", "--d", "32", "--k", "8",
            "--output_dir", str(out), "--seed", "6",
        ]) == 0
        diag = (out / "diagnostics.txt").read_text()
        assert "offset_norm" in diag and "target_bias_norm" in diag
        vector_lines = [
            l for l in (out / "program.txt").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert vector_lines[0] == "32"
        assert len(vector_lines[1].split()) == 32

    def test_optimize_program_artifacts(self, tmp_path):
        out = tmp_path / "opt"
        assert run_cli([
            "optimize-program", "--steps", "20", "--batch", "16",
            "--output_dir", str(out), "--seed", "8",
        ]) == 0
        csv_lines = [
            l for l in (out / "loss_curve.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert csv_lines[0] == "step,loss"
        assert len(csv_lines) == 21


class TestCombineImage:
    def make_images(self, tmp_path):
        rng = SeededRng(99, 0)
        program = ProgramImage(pixels=rng.random(8 * 8 * 3).reshape(8, 8, 3) * 2 - 1)
        image = ProgramImage(pixels=rng.random(4 * 4 * 3).reshape(4, 4, 3) * 2 - 1)
        prog_path = tmp_path / "program.txt"
        img_path = tmp_path / "image.txt"
        prog_path.write_text(image_to_text(program))
        img_path.write_text(image_to_text(image))
        return program, image, prog_path, img_path

    def test_scheme2_blend(self, tmp_path):
        program, image, prog_path, img_path = self.make_images(tmp_path)
        out = tmp_path / "combined"
        code = run_cli([
            "combine-image", "--scheme", "2", "--amount", "0.25",
            "--program_file", str(prog_path), "--image_file", str(img_path),
            "--output_dir", str(out), "--write_ppm", "true",
        ])
        assert code == 0
        text = "\n".join(
            l for l in (out / "combined.txt").read_text().splitlines()
            if not l.startswith("#")
        )
        combined = image_from_text(text)
        assert combined.pixels.shape == (8, 8, 3)
        assert (out / "combined.ppm").read_bytes().startswith(b"P6\n8 8\n255\n")

    def test_missing_image_file_is_config_error(self, tmp_path):
        _, _, prog_path, _ = self.make_images(tmp_path)
        code = run_cli([
            "combine-image", "--scheme", "1", "--amount", "0.5",
            "--program_file", str(prog_path), "--image_file", "/nope/missing.txt",
            "--output_dir", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_bad_scheme_is_config_error(self, tmp_path):
        _, _, prog_path, img_path = self.make_images(tmp_path)
        code = run_cli([
            "combine-image", "--scheme", "3", "--amount", "0.5",
            "--program_file", str(prog_path), "--image_file", str(img_path),
            "--output_dir", str(tmp_path / "x"),
        ])
        assert code == 2
