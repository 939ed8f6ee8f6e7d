"""Command-line front end.

Usage:  reprogram-lab <command> [--config FILE] [--key value ...]

Configuration is a flat key = value text file plus command-line
overrides (overrides win).  Every output file begins with an echo of the
fully resolved configuration, every command writes only inside its
output directory, and the exit status is 0 on success or a passing
suite, 1 on a failing suite, and 2 on a configuration error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from .data_models import BernoulliModel, generate_orthosep, random_hypercube_direction
from .errors import ConfigError, ReprogramLabError
from .gradient_flow import TrainerConfig, balanced_live_init, train, trajectory_to_csv
from .network import network_to_text, random_init
from .numerics import SeededRng
from .reprogram import (
    construct_program,
    image_from_ppm,
    image_from_text,
    image_to_ppm,
    image_to_text,
    optimize_program,
    scheme1_combine,
    scheme2_combine,
)
from .verify import (
    SuiteVerdict,
    Theorem1Config,
    appendix_a_suite,
    available_cpus,
    corollary1_sweep,
    corollary2_suite,
    proposition_suite,
    theorem2_suite,
    theorem1_montecarlo,
    verdict_to_text,
)

SEED_ENV_VAR = "REPROGRAM_LAB_SEED"
DEFAULT_SEED = 97531

_REQUIRED = object()


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "int_list": _parse_int_list,
}

# key -> (type name, default).  _REQUIRED marks keys the user must give.
_COMMON = {
    "seed": ("int", None),  # resolved from the environment fallback when absent
    "output_dir": ("str", "runs"),
}

_SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "verify-theorem1": {
        **_COMMON,
        "d": ("int", 4096),
        "k": ("int", 256),
        "rho": ("float", None),    # defaults to d^0.3
        "tau": ("float", None),    # defaults to d^-0.2
        "gamma": ("float", 0.01),
        "gamma_dag": ("float", 0.01),
        "trials": ("int", 2000),
        "workers": ("int", None),  # defaults to the available CPUs
    },
    "sweep-corollary1": {
        **_COMMON,
        "eta_k": ("float", 2.0 / 3.0),
        "eta_rho": ("float", 0.3),
        "eta_tau": ("float", 0.2),
        "d_list": ("int_list", (256, 1024, 4096)),
        "trials": ("int", 2000),
        "workers": ("int", None),  # defaults to the available CPUs
    },
    "verify-theorem2": {
        **_COMMON,
        "datasets": ("int", 50),
        "d": ("int", 2),
        "k": ("int", 4),
        "n_pos": ("int", 2),
        "n_neg": ("int", 2),
        "step_size": ("float", 1e-3),
        "max_steps": ("int", 1_000_000),
    },
    "verify-corollary2": {
        **_COMMON,
        "k": ("int", 8),
        "init_scale": ("float", 0.1),
        "loss_kind": ("str", "exponential"),
        "target_loss": ("float", 1e-6),
        "budget_steps": ("int", 10_000_000),
    },
    "verify-proposition": {
        **_COMMON,
        "d": ("int", 64),
        "tau": ("float", 0.2),
        "trials": ("int", 10_000),
        "k": ("int", 8),
        "n_pos": ("int", 4),
        "n_neg": ("int", 4),
        "loss_kind": ("str", "exponential"),
        "target_loss": ("float", 1e-6),
        "opt_steps": ("int", 400),
        "opt_lr": ("float", 0.01),
        "opt_batch": ("int", 128),
    },
    "verify-appendix-a": {
        **_COMMON,
        "partition_d": ("int", 64),
        "partition_trials": ("int", 10_000),
        "sv_d": ("int", 1024),
        "sv_k": ("int", 32),
        "sv_gamma": ("float", 0.01),
        "sv_trials": ("int", 1000),
    },
    "construct-program": {
        **_COMMON,
        "d": ("int", 256),
        "k": ("int", 32),
    },
    "optimize-program": {
        **_COMMON,
        "d": ("int", 64),
        "k": ("int", 8),
        "rho": ("float", 8.0),
        "tau": ("float", 0.4),
        "m": ("int", 1),
        "steps": ("int", 300),
        "lr": ("float", 0.01),
        "batch": ("int", 64),
    },
    "train-flow": {
        **_COMMON,
        "d": ("int", 2),
        "n_pos": ("int", 2),
        "n_neg": ("int", 2),
        "k": ("int", 4),
        "init_scale": ("float", 0.5),
        "loss_kind": ("str", "exponential"),
        "step_size": ("float", 1e-3),
        "max_steps": ("int", 100_000),
        "stop_loss": ("float", 0.0),
        "record_every": ("int", 100),
    },
    "combine-image": {
        **_COMMON,
        "scheme": ("int", 2),
        "amount": ("float", _REQUIRED),
        "program_file": ("str", _REQUIRED),
        "image_file": ("str", _REQUIRED),
        "write_ppm": ("bool", False),
    },
}


def parse_config(command: str, argv: list[str]) -> dict:
    """Resolve a command's configuration from defaults, the environment
    seed fallback, an optional --config file, and --key value overrides."""
    if command not in _SCHEMAS:
        raise ConfigError(
            f"unknown command {command!r}; valid commands: {', '.join(sorted(_SCHEMAS))}"
        )
    schema = _SCHEMAS[command]
    values: dict[str, object] = {}

    pairs: list[tuple[str, str]] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise ConfigError(f"expected --key, got {arg!r}")
        if i + 1 >= len(argv):
            raise ConfigError(f"missing value for key {arg[2:]!r}")
        pairs.append((arg[2:], argv[i + 1]))
        i += 2

    file_pairs: list[tuple[str, str]] = []
    for key, raw in list(pairs):
        if key == "config":
            try:
                text = Path(raw).read_text()
            except OSError as exc:
                raise ConfigError(f"config file {raw!r} unreadable: {exc}") from exc
            for line_no, line in enumerate(text.splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line {line_no} has no '=': {line!r}")
                name, _, value = line.partition("=")
                file_pairs.append((name.strip(), value.strip()))
    pairs = [p for p in pairs if p[0] != "config"]

    for key, raw in file_pairs + pairs:  # command line wins over file
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        type_name = schema[key][0]
        try:
            values[key] = _PARSERS[type_name](raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    for key, (_, default) in schema.items():
        if key in values:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
        values[key] = default

    if values.get("seed") is None:
        env = os.environ.get(SEED_ENV_VAR)
        values["seed"] = int(env) if env else DEFAULT_SEED

    if "workers" in schema and values["workers"] is None:
        values["workers"] = available_cpus()
    if command == "verify-theorem1":
        if values["rho"] is None:
            values["rho"] = float(values["d"]) ** 0.3
        if values["tau"] is None:
            values["tau"] = float(values["d"]) ** -0.2
    return values


def _echo_lines(command: str, values: dict) -> str:
    lines = [f"# command = {command}"]
    for key in sorted(values):
        value = values[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"# {key} = {value}")
    return "\n".join(lines) + "\n"


def _write(output_dir: Path, name: str, echo: str, body: str) -> Path:
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / name
    path.write_text(echo + body)
    return path


def _vector_text(vector: np.ndarray) -> str:
    head = f"{vector.size}\n"
    return head + " ".join(format(v, ".17g") for v in vector) + "\n"


def run(command: str, values: dict) -> int:
    """Execute a resolved command; returns the process exit status."""
    out_dir = Path(values["output_dir"])
    echo = _echo_lines(command, values)
    seed = values["seed"]

    def finish_suite(verdict: SuiteVerdict) -> int:
        _write(out_dir, f"{command}.verdict.txt", echo, verdict_to_text(verdict))
        print(f"{verdict.name}: {'PASS' if verdict.passed else 'FAIL'}")
        return 0 if verdict.passed else 1

    if command == "verify-theorem1":
        cfg = Theorem1Config(
            d=values["d"], k=values["k"], rho=values["rho"], tau=values["tau"],
            gamma=values["gamma"], gamma_dag=values["gamma_dag"],
            trials=values["trials"], seed=seed,
        )
        return finish_suite(theorem1_montecarlo(cfg, workers=values["workers"]))

    if command == "sweep-corollary1":
        verdict, rows = corollary1_sweep(
            values["eta_k"], values["eta_rho"], values["eta_tau"],
            values["d_list"], values["trials"], seed, workers=values["workers"],
        )
        csv_lines = ["d,k,rho,tau,tau_clamped,accuracy,stderr"]
        for row in rows:
            csv_lines.append(
                f"{row['d']},{row['k']},{row['rho']:.17g},{row['tau']:.17g},"
                f"{str(row['tau_clamped']).lower()},{row['accuracy']:.17g},{row['stderr']:.17g}"
            )
        _write(out_dir, "corollary1_sweep.csv", echo, "\n".join(csv_lines) + "\n")
        return finish_suite(verdict)

    if command == "verify-theorem2":
        return finish_suite(theorem2_suite(
            values["datasets"], values["d"], values["k"], values["n_pos"],
            values["n_neg"], values["step_size"], values["max_steps"], seed,
        ))

    if command == "verify-corollary2":
        return finish_suite(corollary2_suite(
            seed, k=values["k"], init_scale=values["init_scale"],
            loss_kind=values["loss_kind"], target_loss=values["target_loss"],
            budget_steps=values["budget_steps"],
        ))

    if command == "verify-proposition":
        return finish_suite(proposition_suite(
            seed, d=values["d"], tau=values["tau"], trials=values["trials"],
            k=values["k"], n_pos=values["n_pos"], n_neg=values["n_neg"],
            loss_kind=values["loss_kind"], target_loss=values["target_loss"],
            opt_steps=values["opt_steps"], opt_lr=values["opt_lr"],
            opt_batch=values["opt_batch"],
        ))

    if command == "verify-appendix-a":
        return finish_suite(appendix_a_suite(
            seed, partition_d=values["partition_d"],
            partition_trials=values["partition_trials"], sv_d=values["sv_d"],
            sv_k=values["sv_k"], sv_gamma=values["sv_gamma"],
            sv_trials=values["sv_trials"],
        ))

    if command == "construct-program":
        rng = SeededRng(seed, 0)
        net = random_init(values["d"], values["k"], rng)
        phi = random_hypercube_direction(values["d"], rng)
        program = construct_program(net, phi)
        _write(out_dir, "network.txt", echo, network_to_text(net))
        _write(out_dir, "program.txt", echo, _vector_text(program.offset))
        body = (
            f"helpful = {program.helpful.size}\n"
            f"unhelpful = {program.unhelpful.size}\n"
            f"offset_norm = {program.offset_norm:.17g}\n"
            f"target_bias_norm = {program.target_bias_norm:.17g}\n"
        )
        _write(out_dir, "diagnostics.txt", echo, body)
        return 0

    if command == "optimize-program":
        rng = SeededRng(seed, 0)
        net = random_init(values["d"], values["k"], rng)
        phi = random_hypercube_direction(values["d"], rng)
        model = BernoulliModel(direction=phi, radius=values["rho"], bias=values["tau"])
        offset, losses = optimize_program(
            net, model, values["m"], values["steps"], values["lr"],
            values["batch"], rng,
        )
        _write(out_dir, "program.txt", echo, _vector_text(offset))
        csv = "step,loss\n" + "\n".join(
            f"{i},{v:.17g}" for i, v in enumerate(losses)
        ) + "\n"
        _write(out_dir, "loss_curve.csv", echo, csv)
        return 0

    if command == "train-flow":
        data_rng = SeededRng(seed, 0)
        dataset = generate_orthosep(values["d"], values["n_pos"], values["n_neg"], data_rng)
        theta0 = balanced_live_init(dataset, values["k"], values["init_scale"],
                                    SeededRng(seed, 1))
        cfg = TrainerConfig(
            loss_kind=values["loss_kind"], step_size=values["step_size"],
            max_steps=values["max_steps"], stop_loss=values["stop_loss"],
            record_every=values["record_every"],
        )
        report = train(theta0, dataset, cfg)
        _write(out_dir, "trajectory.csv", echo, trajectory_to_csv(report))
        _write(out_dir, "final_weights.txt", echo,
               network_to_text(report.final_theta.to_network()))
        crossed = report.crossed_margin_loss_at
        body = (
            f"steps_run = {report.steps_run}\n"
            f"final_loss = {report.final_loss:.17g}\n"
            f"crossed_margin_loss_at = {'none' if crossed is None else crossed}\n"
            f"sign_flip_detected = {str(report.sign_flip_detected).lower()}\n"
        )
        _write(out_dir, "summary.txt", echo, body)
        return 0

    if command == "combine-image":
        program = _read_image(values["program_file"])
        image = _read_image(values["image_file"])
        if values["scheme"] == 1:
            combined = scheme1_combine(program, image, values["amount"])
        elif values["scheme"] == 2:
            combined = scheme2_combine(program, image, values["amount"])
        else:
            raise ConfigError("key 'scheme': must be 1 or 2")
        _write(out_dir, "combined.txt", echo, image_to_text(combined))
        if values["write_ppm"]:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "combined.ppm").write_bytes(image_to_ppm(combined))
        return 0

    raise ConfigError(f"unknown command {command!r}")


def _read_image(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise ConfigError(f"image file {path_text!r} does not exist")
    if path.suffix.lower() == ".ppm":
        return image_from_ppm(path.read_bytes())
    return image_from_text(path.read_text())


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        print("\ncommands:", ", ".join(sorted(_SCHEMAS)))
        return 0 if args else 2
    command, rest = args[0], args[1:]
    try:
        values = parse_config(command, rest)
        return run(command, values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a failure of the library, not the config
        print(f"error: LinAlgError: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # parameter combinations the library rejects are configuration errors
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ReprogramLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
