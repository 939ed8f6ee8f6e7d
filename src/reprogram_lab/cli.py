"""Command-line front end.

Usage:  reprogram-lab <command> [--config FILE] [--key value ...]

Configuration is a flat key = value text file plus command-line
overrides (overrides win).  Every output file begins with an echo of the
fully resolved configuration, every command writes only inside its
output directory, and the exit status is 0 on success or a passing
suite, 1 on a failing suite or any other error, and 2 on a configuration
error: an argument or input that a check rejects with ConfigError.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .data_models import BernoulliModel, generate_orthosep, random_hypercube_direction
from .errors import ConfigError, ReprogramLabError
from .gradient_flow import balanced_live_init, train, trajectory_to_csv
from .network import network_to_text, random_init
from .numerics import SeededRng
from .reprogram import (
    ascii_int,
    build_target_bias,
    construct_program,
    image_from_ppm,
    image_from_text,
    image_to_ppm,
    image_to_text,
    optimize_program,
    partition_neurons,
    scheme1_combine,
    scheme2_combine,
)
from .verify import (
    Theorem1Config,
    appendix_a_suite,
    corollary1_sweep,
    corollary2_suite,
    proposition_suite,
    theorem2_suite,
    theorem1_montecarlo,
    verdict_to_text,
)

SEED_ENV_VAR = "REPROGRAM_LAB_SEED"
DEFAULT_SEED = 97531


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # no key takes nan or an infinity
        raise ConfigError(f"{text!r} is not finite")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ConfigError(f"malformed integer list {text!r}: an entry is empty")
    return tuple(ascii_int(part.strip()) for part in parts)


# annotation -> parser; every module postpones annotations, so an
# annotation is its source text
_PARSERS = {
    "int": ascii_int, "float": _parse_float, "float | None": _parse_float, "str": str,
    "bool": _parse_bool, "tuple[int, ...]": _parse_int_list,
}

# key -> (type, default), shared by every command
_COMMON = {
    "seed": ("int", None),  # resolved from the environment fallback when absent
    "output_dir": ("str", "runs"),
}


def _command(fn, *keys: str) -> tuple[dict, object]:
    """(schema, runner) of a command that runs ``fn``.

    The keys are ``keys``, or else every parameter of ``fn`` but
    ``write`` and the common keys.  A key's type is its annotation and
    its default is ``fn``'s; a key with no default is required.  The
    runner passes ``fn`` the resolved values and ``write`` that it names,
    looking ``fn`` up by name, so a rebound function is the one that runs.
    """
    params = inspect.signature(fn).parameters
    keys = keys or [key for key in params if key not in (*_COMMON, "write")]
    schema = {**_COMMON, **{key: (params[key].annotation, params[key].default) for key in keys}}

    def runner(values: dict, write):
        given = {**values, "write": write}
        return globals()[fn.__name__](**{key: given[key] for key in params if key in given})

    return schema, runner


@contextmanager
def _named_as(**keys: str):
    """Re-raise a library ConfigError that begins with one of ``keys``'
    field names under the CLI key it maps to, so messages name what the
    user typed."""
    try:
        yield
    except ConfigError as exc:
        field, _, rest = str(exc).partition(" ")
        if field not in keys:
            raise
        raise ConfigError(f"{keys[field]} {rest}") from exc


def _vector_text(vector: np.ndarray) -> str:
    head = f"{vector.size}\n"
    return head + " ".join(format(v, ".17g") for v in vector) + "\n"


# Each function below runs one command; write(name, text) writes a file
# behind the configuration echo.  Those of suite commands return the
# verdict, the others None.


def _theorem1(
    seed: int, d: int = 4096, k: int = 256, rho: float | None = None, tau: float | None = None,
    gamma: float = 0.01, gamma_dag: float = 0.01, trials: int = 2000,
):  # parse_config resolves a missing rho to d^0.3 and tau to d^-0.2
    return theorem1_montecarlo(Theorem1Config(d, k, rho, tau, gamma, gamma_dag, trials, seed))


def _corollary1(
    write, seed: int, eta_k: float = 2.0 / 3.0, eta_rho: float = 0.3, eta_tau: float = 0.2,
    d_list: tuple[int, ...] = (256, 1024, 4096), trials: int = 2000,
):
    verdict, rows = corollary1_sweep(eta_k, eta_rho, eta_tau, d_list, trials, seed)
    csv_lines = ["d,k,rho,tau,tau_clamped,accuracy,stderr"]
    for row in rows:
        csv_lines.append(
            f"{row['d']},{row['k']},{row['rho']:.17g},{row['tau']:.17g},"
            f"{str(row['tau_clamped']).lower()},{row['accuracy']:.17g},{row['stderr']:.17g}"
        )
    write("corollary1_sweep.csv", "\n".join(csv_lines) + "\n")
    return verdict


def _theorem2(
    seed: int, datasets: int = 50, d: int = 2, k: int = 4, n_pos: int = 2, n_neg: int = 2,
    step_size: float = 1e-3, max_steps: int = 1_000_000,
):
    return theorem2_suite(datasets, d, k, n_pos, n_neg, step_size, max_steps, seed)


def _construct_program(write, seed: int, d: int = 256, k: int = 32) -> None:
    rng = SeededRng(seed, 0)
    net = random_init(d, k, rng)
    phi = random_hypercube_direction(d, rng)
    offset = construct_program(net, phi)
    helpful, unhelpful = partition_neurons(net, phi)
    write("network.txt", network_to_text(net))
    write("program.txt", _vector_text(offset))
    write("diagnostics.txt", (
        f"helpful = {helpful.size}\n"
        f"unhelpful = {unhelpful.size}\n"
        f"offset_norm = {float(np.linalg.norm(offset)):.17g}\n"
        f"target_bias_norm = {float(np.linalg.norm(build_target_bias(d, k, unhelpful))):.17g}\n"
    ))


def _optimize_program(
    write, seed: int, d: int = 64, k: int = 8, rho: float = 8.0, tau: float = 0.4, m: int = 1,
    steps: int = 300, lr: float = 0.01, batch: int = 64,
) -> None:
    rng = SeededRng(seed, 0)
    net = random_init(d, k, rng)
    phi = random_hypercube_direction(d, rng)
    with _named_as(radius="rho", bias="tau"):
        model = BernoulliModel(direction=phi, radius=rho, bias=tau)
    offset, losses = optimize_program(net, model, m, steps, lr, batch, rng)
    write("program.txt", _vector_text(offset))
    write("loss_curve.csv", "step,loss\n" + "\n".join(
        f"{i},{v:.17g}" for i, v in enumerate(losses)
    ) + "\n")


def _train_flow(
    write, seed: int, d: int = 2, n_pos: int = 2, n_neg: int = 2, k: int = 4,
    init_scale: float = 0.5, loss_kind: str = "exponential", step_size: float = 1e-3,
    max_steps: int = 100_000, stop_loss: float = 0.0, record_every: int = 100,
) -> None:
    dataset = generate_orthosep(d, n_pos, n_neg, SeededRng(seed, 0))
    theta0 = balanced_live_init(dataset, k, init_scale, SeededRng(seed, 1))
    report = train(
        theta0, dataset, loss_kind, step_size, max_steps,
        stop_loss=stop_loss, record_every=record_every,
    )
    write("trajectory.csv", trajectory_to_csv(report))
    write("final_weights.txt", network_to_text(report.final_theta))
    crossed = report.crossed_margin_loss_at
    write("summary.txt", (
        f"steps_run = {report.steps_run}\n"
        f"final_loss = {report.final_loss:.17g}\n"
        f"crossed_margin_loss_at = {'none' if crossed is None else crossed}\n"
        f"sign_flip_detected = {str(report.sign_flip_detected).lower()}\n"
    ))


def _combine_image(
    write, output_dir: str, *, scheme: int = 2, amount: float, program_file: str,
    image_file: str, write_ppm: bool = False,
) -> None:
    program = _read_image(program_file)
    image = _read_image(image_file)
    with _named_as(r="amount", v="amount"):
        if scheme == 1:
            combined = scheme1_combine(program, image, amount)
        elif scheme == 2:
            combined = scheme2_combine(program, image, amount)
        else:
            raise ConfigError("key 'scheme': must be 1 or 2")
    ppm = image_to_ppm(combined) if write_ppm else None  # checked before any write
    write("combined.txt", image_to_text(combined))
    if ppm is not None:
        (Path(output_dir) / "combined.ppm").write_bytes(ppm)


# command -> (schema, runner)
_COMMANDS = {
    "verify-theorem1": _command(_theorem1),
    "sweep-corollary1": _command(_corollary1),
    "verify-theorem2": _command(_theorem2),
    "verify-corollary2": _command(corollary2_suite),
    "verify-proposition": _command(  # every parameter but budget_steps
        proposition_suite, "d", "tau", "trials", "k", "n_pos", "n_neg", "loss_kind",
        "target_loss", "opt_steps", "opt_lr", "opt_batch",
    ),
    "verify-appendix-a": _command(appendix_a_suite),
    "construct-program": _command(_construct_program),
    "optimize-program": _command(_optimize_program),
    "train-flow": _command(_train_flow),
    "combine-image": _command(_combine_image),
}


def parse_config(command: str, argv: list[str]) -> dict:
    """Resolve a command's configuration from defaults, the environment
    seed fallback, an optional --config file, and --key value overrides."""
    if command not in _COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; valid commands: {', '.join(sorted(_COMMANDS))}"
        )
    schema = _COMMANDS[command][0]
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
            except (OSError, UnicodeDecodeError) as exc:
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
        kind = schema[key][0]
        try:
            values[key] = _PARSERS[kind](raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
        # an integer past float range overflows the suites' float arithmetic
        ints = values[key] if kind == "tuple[int, ...]" else (values[key],) if kind == "int" else ()
        if any(abs(value) > sys.float_info.max for value in ints):
            raise ConfigError(f"{key} must not exceed {sys.float_info.max:.3g} in magnitude")

    for key, (_, default) in schema.items():
        if default is inspect.Parameter.empty and key not in values:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
        values.setdefault(key, default)

    if values.get("seed") is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            values["seed"] = ascii_int(env) if env else DEFAULT_SEED
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: {exc}") from exc

    if command == "verify-theorem1":
        if values["d"] < 1:
            raise ConfigError(f"d must be at least 1, got {values['d']}")
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


def run(command: str, values: dict) -> int:
    """Execute a resolved command; returns the process exit status."""
    out_dir = Path(values["output_dir"])
    echo = _echo_lines(command, values)

    def write(name: str, body: str) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(echo + body)

    verdict = _COMMANDS[command][1](values, write)
    if verdict is None:
        return 0
    write(f"{command}.verdict.txt", verdict_to_text(verdict))
    print(f"{verdict.name}: {'PASS' if verdict.passed else 'FAIL'}")
    return 0 if verdict.passed else 1


def _read_image(path_text: str):
    path = Path(path_text)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"image file {path_text!r} unreadable: {exc}") from exc
    if path.suffix.lower() == ".ppm":
        return image_from_ppm(data)
    # an undecodable byte becomes U+FFFD, which no token of the record accepts
    return image_from_text(data.decode(errors="replace"))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        print("\ncommands:", ", ".join(sorted(_COMMANDS)))
        return 0 if args else 2
    command, rest = args[0], args[1:]
    try:
        values = parse_config(command, rest)
        return run(command, values)
    except ConfigError as exc:  # every argument and input check raises it
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ReprogramLabError, ValueError) as exc:  # a failure of the library or numpy
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
