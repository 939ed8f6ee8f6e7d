"""Tests for the command-line front end: configuration resolution, exit
codes, file layout, and byte-level determinism of outputs."""

import functools
import inspect

import numpy as np
import pytest

from golden_corpus import CASES
from reprogram_lab import cli, verify
from reprogram_lab.cli import main, parse_config
from reprogram_lab.errors import ConfigError
from reprogram_lab.numerics import SeededRng
from reprogram_lab.reprogram import ProgramImage, image_from_text, image_to_text


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

    def test_undecodable_config_file_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"datasets = 9\n\xff\n")
        with pytest.raises(ConfigError, match="unreadable"):
            parse_config("verify-theorem2", ["--config", str(cfg)])

    def test_theorem1_derived_defaults(self):
        values = parse_config("verify-theorem1", [])
        assert values["rho"] == pytest.approx(4096**0.3)
        assert values["tau"] == pytest.approx(4096**-0.2)

    def test_d_list_parsing(self):
        values = parse_config("sweep-corollary1", ["--d_list", "16,32,64"])
        assert values["d_list"] == (16, 32, 64)

    def test_seed_variable_that_is_not_an_integer_names_the_variable(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPROGRAM_LAB_SEED", "x")
        with pytest.raises(ConfigError, match="REPROGRAM_LAB_SEED"):
            parse_config("verify-theorem2", [])
        code = run_cli(["construct-program", "--d", "16", "--k", "4",
                        "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert "REPROGRAM_LAB_SEED" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,key,text", [
        ("verify-theorem2", "datasets", "\u0661\u0662"),
        ("verify-theorem2", "max_steps", "1_000"),
        ("sweep-corollary1", "d_list", "2_56,1024"),
        ("verify-theorem2", "d", "+2"),
        ("verify-theorem2", "d", " 2"),
    ], ids=["arabic-indic-digits", "underscore", "underscore-in-list", "plus-sign", "space"])
    def test_integers_take_ascii_digits_only(self, tmp_path, capsys, command, key, text):
        # the rule of the image header fields: ASCII digits and a leading minus
        code = run_cli([command, f"--{key}", text, "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert f"key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spaces_around_list_entries_still_parse(self):
        values = parse_config("sweep-corollary1", ["--d_list", "256, 1024"])
        assert values["d_list"] == (256, 1024)

    def test_every_command_resolves_the_same_defaults(self, monkeypatch):
        # each key, default and type of every command, written out; the
        # schemas come from signatures, so this pins what they must say
        monkeypatch.delenv("REPROGRAM_LAB_SEED", raising=False)
        common = {"seed": 97531, "output_dir": "runs"}
        expected = {
            "verify-theorem1": {
                "d": 4096, "k": 256, "rho": 12.125732532083184, "tau": 0.18946457081379975,
                "gamma": 0.01, "gamma_dag": 0.01, "trials": 2000,
            },
            "sweep-corollary1": {
                "eta_k": 0.6666666666666666, "eta_rho": 0.3, "eta_tau": 0.2,
                "d_list": (256, 1024, 4096), "trials": 2000,
            },
            "verify-theorem2": {
                "datasets": 50, "d": 2, "k": 4, "n_pos": 2, "n_neg": 2, "step_size": 0.001,
                "max_steps": 1000000,
            },
            "verify-corollary2": {
                "k": 8, "init_scale": 0.1, "loss_kind": "exponential", "target_loss": 1e-06,
                "budget_steps": 10000000,
            },
            "verify-proposition": {
                "d": 64, "tau": 0.2, "trials": 10000, "k": 8, "n_pos": 4, "n_neg": 4,
                "loss_kind": "exponential", "target_loss": 1e-06, "opt_steps": 400,
                "opt_lr": 0.01, "opt_batch": 128,
            },
            "verify-appendix-a": {
                "partition_d": 64, "partition_trials": 10000, "sv_d": 1024, "sv_k": 32,
                "sv_gamma": 0.01, "sv_trials": 1000,
            },
            "construct-program": {"d": 256, "k": 32},
            "optimize-program": {
                "d": 64, "k": 8, "rho": 8.0, "tau": 0.4, "m": 1, "steps": 300, "lr": 0.01,
                "batch": 64,
            },
            "train-flow": {
                "d": 2, "n_pos": 2, "n_neg": 2, "k": 4, "init_scale": 0.5,
                "loss_kind": "exponential", "step_size": 0.001, "max_steps": 100000,
                "stop_loss": 0.0, "record_every": 100,
            },
            "combine-image": {
                "scheme": 2, "amount": 0.5, "program_file": "p.txt", "image_file": "i.txt",
                "write_ppm": False,
            },
        }
        assert set(expected) == set(cli._COMMANDS)
        for command, keys in expected.items():
            argv = []
            if command == "combine-image":
                argv = ["--amount", "0.5", "--program_file", "p.txt", "--image_file", "i.txt"]
            values = parse_config(command, argv)
            typed = {key: (value, type(value)) for key, value in values.items()}
            assert typed == {
                key: (value, type(value)) for key, value in {**common, **keys}.items()
            }, command

    @pytest.mark.parametrize("text", ["256,,1024", ",", "256,1024,"])
    def test_empty_list_entry_is_malformed(self, tmp_path, capsys, text):
        code = run_cli([
            "sweep-corollary1", "--d_list", text, "--trials", "10",
            "--output_dir", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed" in err and repr(text) in err
        assert not (tmp_path / "out").exists()


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
    ])
    def test_zero_evidence_is_a_config_error(self, tmp_path, capsys, command, key):
        # a suite with no runs or no trials must neither pass nor crash
        code = run_cli([command, f"--{key}", "0", "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / f"{command}.verdict.txt").exists()

    @pytest.mark.parametrize("command", ["verify-theorem1", "sweep-corollary1"])
    def test_workers_is_an_unknown_key(self, tmp_path, capsys, command):
        # the suites choose their own trial threads
        code = run_cli([command, "--workers", "2", "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key 'workers'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,args,key", [
        ("verify-theorem1", ["--d", "16", "--tau", "0.4", "--k", "0"], "k"),
        ("verify-theorem1", ["--d", "16", "--tau", "0.4", "--k", "-1"], "k"),
        ("verify-theorem1", ["--d", "0", "--k", "1"], "d"),
        ("verify-theorem1", ["--d", "1" + "0" * 400, "--k", "1"], "d"),
        ("sweep-corollary1", ["--d_list", "0,256", "--trials", "10"], "d_list"),
        ("sweep-corollary1", ["--d_list", "1024,256", "--trials", "10"], "d_list"),
        ("sweep-corollary1", ["--d_list", "256,256", "--trials", "10"], "d_list"),
        ("verify-appendix-a", ["--sv_gamma", "0", "--partition_trials", "10", "--sv_trials", "10"],
         "sv_gamma"),
        ("verify-appendix-a", ["--sv_gamma", "1", "--partition_trials", "10", "--sv_trials", "10"],
         "sv_gamma"),
        ("verify-theorem2", ["--step_size", "-1", "--datasets", "2"], "step_size"),
        ("verify-theorem2", ["--step_size", "0", "--datasets", "2", "--max_steps", "100"],
         "step_size"),
        ("verify-corollary2", ["--target_loss", "0", "--budget_steps", "2000"], "target_loss"),
        ("verify-corollary2", ["--target_loss", "-1", "--budget_steps", "2000"], "target_loss"),
        ("verify-proposition", ["--target_loss", "0", "--trials", "100", "--opt_steps", "5"],
         "target_loss"),
        ("verify-corollary2", ["--budget_steps", "-5"], "budget_steps"),
        ("verify-theorem2", ["--max_steps", "-1", "--datasets", "2"], "max_steps"),
        ("verify-appendix-a", ["--sv_d", "8", "--sv_k", "16", "--partition_trials", "5",
                               "--sv_trials", "5"], "sv_k"),
        ("construct-program", ["--d", "8", "--k", "9"], "k"),
        ("construct-program", ["--d", "8", "--k", "0"], "k"),
        ("optimize-program", ["--d", "8", "--k", "0"], "k"),
        # outside Corollary 1's exponent conditions and Theorem 1's
        # hypothesis 2 d tau^2 >= ln(1/gamma_dag)
        ("sweep-corollary1", ["--eta_rho", "0.9", "--trials", "10"], "eta_rho"),
        ("verify-theorem1", ["--d", "16", "--k", "4", "--tau", "0.01"], "tau"),
        # integers past float range overflow the suites' float arithmetic
        ("sweep-corollary1", ["--d_list", "256,1" + "0" * 400, "--trials", "10"], "d_list"),
        ("verify-appendix-a", ["--sv_d", "1" + "0" * 400, "--sv_trials", "5"], "sv_d"),
        ("verify-proposition", ["--d", "1" + "0" * 400, "--trials", "100"], "d"),
        # the data model's rho and tau, named by the keys that set them
        ("optimize-program", ["--rho", "-1", "--steps", "5"], "rho"),
        ("optimize-program", ["--tau", "0.7", "--steps", "5"], "tau"),
        ("verify-proposition", ["--tau", "0.7", "--trials", "100", "--opt_steps", "5"], "tau"),
        # sizes inside float range but past numpy's array size limit
        ("verify-proposition", ["--d", "1" + "0" * 20, "--trials", "100"], "d"),
        ("verify-theorem1", ["--d", "1" + "0" * 20, "--k", "2", "--trials", "1"], "d"),
        ("construct-program", ["--d", "1" + "0" * 20, "--k", "2"], "d"),
    ], ids=[
        "theorem1-k0", "theorem1-k-1", "theorem1-d0", "theorem1-d-above-float",
        "corollary1-d0", "corollary1-decreasing",
        "corollary1-repeated", "appendix-a-gamma0",
        "appendix-a-gamma1", "theorem2-step-1", "theorem2-step0", "corollary2-target0",
        "corollary2-target-1", "proposition-target0", "corollary2-budget-5",
        "theorem2-steps-1", "appendix-a-k-above-d", "construct-program-k-above-d",
        "construct-program-k0", "optimize-program-k0", "corollary1-eta-rho",
        "theorem1-tau-hypothesis", "corollary1-d-above-float", "appendix-a-sv-d-above-float",
        "proposition-d-above-float", "optimize-program-rho-1", "optimize-program-tau-above-half",
        "proposition-tau-above-half", "proposition-d-above-numpy", "theorem1-d-above-numpy",
        "construct-program-d-above-numpy",
    ])
    def test_out_of_range_parameter_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, command, args, key
    ):
        # each value would crash, pass vacuously or train until a step
        # budget runs out; the proposition's CLI sets no budget, so it gets
        # a small one here in case its target is not rejected
        monkeypatch.setattr(
            cli, "proposition_suite",
            functools.partial(verify.proposition_suite, budget_steps=2000),
        )
        code = run_cli([command, *args, "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{key} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,args,key", [
        # a NaN target passed: target <= 0 and log_loss > log(nan) are both false
        ("verify-corollary2", ["--target_loss", "nan", "--budget_steps", "2000"], "target_loss"),
        # before the parser rejected them, these failed late in training,
        # in the live initialisation and in the exponent check
        ("verify-theorem2", ["--datasets", "1", "--step_size", "nan"], "step_size"),
        ("verify-theorem2", ["--datasets", "1", "--step_size", "inf"], "step_size"),
        ("verify-corollary2", ["--init_scale", "nan"], "init_scale"),
        ("sweep-corollary1", ["--eta_k", "nan", "--trials", "5"], "eta_k"),
        ("verify-theorem1", ["--d", "16", "--k", "4", "--rho", "1e400"], "rho"),
        ("verify-theorem2", ["--datasets", "1", "--step_size", "-inf"], "step_size"),
    ], ids=[
        "corollary2-target-nan", "theorem2-step-nan", "theorem2-step-inf",
        "corollary2-init-scale-nan", "corollary1-eta-k-nan", "theorem1-rho-overflow",
        "theorem2-step-minus-inf",
    ])
    def test_non_finite_float_is_a_config_error(self, tmp_path, capsys, command, args, key):
        # no float key takes nan or an infinity; the parser names the key
        code = run_cli([command, *args, "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert f"key {key!r}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self):
        assert run_cli(["--help"]) == 0

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError, MemoryError])
    def test_linalg_error_is_an_error_not_a_config_error(
        self, tmp_path, monkeypatch, capsys, error
    ):
        # only ConfigError is a configuration error; a failing factorisation,
        # a ValueError from inside the library or a failed allocation is the
        # library's failure, reported in one line
        def broken_suite(*args, **kwargs):
            raise error("Matrix is not positive definite")

        monkeypatch.setattr(cli, "appendix_a_suite", broken_suite)
        code = run_cli(["verify-appendix-a", "--output_dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {error.__name__}: Matrix is not positive definite" in err
        assert "configuration error" not in err

    @pytest.mark.parametrize("init_scale,seed", [("20", "8"), ("40", "2")])
    def test_overflowing_initial_loss_is_an_error_not_a_config_error(
        self, tmp_path, capsys, init_scale, seed
    ):
        # the balanced start's minimum margin is near -1100, so exp(-m)
        # overflows and training cannot take a first step
        out = tmp_path / "out"
        code = run_cli([
            "verify-corollary2", "--init_scale", init_scale, "--seed", seed,
            "--output_dir", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: NonFiniteLoss" in err
        assert "configuration error" not in err
        assert not (out / "verify-corollary2.verdict.txt").exists()

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
        # sqrt(100) - sqrt(100) - spread < 0: s_min cannot violate the bound
        assert "measured.sv_lower_bound_positive = false" in text


class TestSuiteWiring:
    # each suite command at its small non-default configuration in the
    # golden corpus, against the library call it should make
    @pytest.mark.parametrize("command,call", [
        ("verify-theorem1",
         lambda: verify.theorem1_montecarlo(verify.Theorem1Config(
             d=64, k=8, rho=3.0, tau=0.4, gamma=0.05, gamma_dag=0.01, trials=20, seed=5,
         ))),
        ("sweep-corollary1",
         lambda: verify.corollary1_sweep(2.0 / 3.0, 0.25, 0.2, (16, 32), 20, 5)[0]),
        ("verify-theorem2",
         lambda: verify.theorem2_suite(2, 2, 6, 3, 2, 0.002, 5000, 5)),
        ("verify-corollary2",
         lambda: verify.corollary2_suite(5, k=6, init_scale=0.2, budget_steps=3000)),
        ("verify-proposition",
         lambda: verify.proposition_suite(5, d=16, trials=200, opt_steps=5, target_loss=1e-3)),
        ("verify-appendix-a",
         lambda: verify.appendix_a_suite(
             5, partition_trials=100, sv_d=64, sv_k=8, sv_gamma=0.05, sv_trials=10,
         )),
    ], ids=["theorem1", "corollary1", "theorem2", "corollary2", "proposition", "appendix-a"])
    def test_verdict_is_the_library_verdict(self, tmp_path, command, call):
        run_cli([command, *CASES[command], "--seed", "5", "--output_dir", str(tmp_path)])
        written = [
            line for line in read_without_runtime(tmp_path / f"{command}.verdict.txt").splitlines()
            if not line.startswith("#")
        ]
        expected = [
            line for line in verify.verdict_to_text(call()).splitlines()
            if not line.startswith("runtime_seconds")
        ]
        assert written == expected

    @pytest.mark.parametrize("command,suite,keys", [
        ("verify-corollary2", verify.corollary2_suite,
         "k init_scale loss_kind target_loss budget_steps"),
        ("verify-proposition", verify.proposition_suite,
         "d tau trials k n_pos n_neg loss_kind target_loss opt_steps opt_lr opt_batch"),
        ("verify-appendix-a", verify.appendix_a_suite,
         "partition_d partition_trials sv_d sv_k sv_gamma sv_trials"),
    ], ids=["corollary2", "proposition", "appendix-a"])
    def test_schema_defaults_are_the_suite_defaults(self, command, suite, keys):
        # these commands pass every key to the suite by name; the schema
        # takes each key's type and default from the suite's signature and
        # must accept exactly these keys
        schema = cli._COMMANDS[command][0]
        params = inspect.signature(suite).parameters
        assert set(schema) - set(cli._COMMON) == set(keys.split())
        for key in keys.split():
            type_name, default = schema[key]
            assert default == params[key].default, key
            assert type_name == type(default).__name__, key


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

    @pytest.mark.parametrize("extra,message", [
        (["--scheme", "1"], "program has 1 channels, image has 3"),
        (["--scheme", "2"], "program has 1 channels, image has 3"),
        # PPM export is checked before combined.txt is written
        (["--image_file", "gray.txt", "--write_ppm", "true"], "requires exactly 3 channels"),
    ], ids=["scheme1", "scheme2", "ppm"])
    def test_channel_mismatch_is_config_error(self, tmp_path, monkeypatch, capsys, extra, message):
        self.make_images(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gray.txt").write_text(image_to_text(ProgramImage(pixels=np.zeros((8, 8, 1)))))
        code = run_cli([
            "combine-image", "--amount", "0.5", "--program_file", "gray.txt",
            "--image_file", "image.txt", "--output_dir", "x", *extra,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scheme", ["1", "2"])
    def test_amount_out_of_range_names_the_key(self, tmp_path, capsys, scheme):
        _, _, prog_path, img_path = self.make_images(tmp_path)
        code = run_cli([
            "combine-image", "--scheme", scheme, "--amount", "2", "--program_file",
            str(prog_path), "--image_file", str(img_path), "--output_dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "amount must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("body", [b"1 1 1 \xff", b"1 1 1 0.5x", b"\xff\xfe1 1 1 0"])
    def test_malformed_image_file_is_config_error(self, tmp_path, capsys, body):
        _, _, prog_path, img_path = self.make_images(tmp_path)
        img_path.write_bytes(body)
        code = run_cli([
            "combine-image", "--amount", "0.5", "--program_file", str(prog_path),
            "--image_file", str(img_path), "--output_dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "configuration error: image" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_scheme_is_config_error(self, tmp_path):
        _, _, prog_path, img_path = self.make_images(tmp_path)
        code = run_cli([
            "combine-image", "--scheme", "3", "--amount", "0.5",
            "--program_file", str(prog_path), "--image_file", str(img_path),
            "--output_dir", str(tmp_path / "x"),
        ])
        assert code == 2
