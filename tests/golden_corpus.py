"""The golden verdict corpus: the outputs of every CLI command at small
configurations and two seeds, kept under ``tests/golden/<seed>/<command>/``.

``tests/test_golden.py`` runs every case again and compares the files it
writes with the corpus.  A change that moves an output on purpose rewrites
the corpus with

    PYTHONPATH=src python tests/golden_corpus.py

and the corpus diff shows which outputs moved.  The stored text leaves out
the two lines that differ between identical runs: ``runtime_seconds`` and
the ``# output_dir`` echo.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from reprogram_lab import cli
from reprogram_lab.numerics import SeededRng
from reprogram_lab.reprogram import ProgramImage, image_to_text

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (97531, 8191)

# command -> arguments; the six suites at the configurations that
# test_cli.py's TestSuiteWiring also runs, the other four at small sizes
CASES = {
    "verify-theorem1": ["--d", "64", "--k", "8", "--rho", "3", "--tau", "0.4",
                        "--gamma", "0.05", "--trials", "20"],
    "sweep-corollary1": ["--d_list", "16,32", "--trials", "20", "--eta_rho", "0.25"],
    "verify-theorem2": ["--datasets", "2", "--k", "6", "--n_pos", "3", "--step_size", "0.002",
                        "--max_steps", "5000"],
    "verify-corollary2": ["--k", "6", "--init_scale", "0.2", "--budget_steps", "3000"],
    "verify-proposition": ["--d", "16", "--trials", "200", "--opt_steps", "5",
                           "--target_loss", "0.001"],
    "verify-appendix-a": ["--partition_trials", "100", "--sv_d", "64", "--sv_k", "8",
                          "--sv_gamma", "0.05", "--sv_trials", "10"],
    "construct-program": ["--d", "32", "--k", "8"],
    "optimize-program": ["--steps", "20", "--batch", "16"],
    "train-flow": ["--max_steps", "500"],
    "combine-image": ["--scheme", "2", "--amount", "0.25", "--program_file", "program.txt",
                      "--image_file", "image.txt"],
}

_VARYING = ("runtime_seconds", "# output_dir")


def _combine_image_inputs(seed: int) -> None:
    """The program and image files that combine-image reads, in the
    working directory."""
    rng = SeededRng(seed, 0)
    program = ProgramImage(pixels=rng.random(8 * 8 * 3).reshape(8, 8, 3) * 2 - 1)
    image = ProgramImage(pixels=rng.random(4 * 4 * 3).reshape(4, 4, 3) * 2 - 1)
    Path("program.txt").write_text(image_to_text(program))
    Path("image.txt").write_text(image_to_text(image))


def run_case(command: str, seed: int, workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``; returns its outputs as
    :func:`read_outputs` reads them."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        if command == "combine-image":
            _combine_image_inputs(seed)
        code = cli.main([command, *CASES[command], "--seed", str(seed), "--output_dir", "out"])
    finally:
        os.chdir(previous)
    if code not in (0, 1):
        raise RuntimeError(f"{command} at seed {seed} exited {code}")
    return read_outputs(workdir / "out")


def read_outputs(folder: Path) -> dict[str, str]:
    """Each output file's name and its text without the varying lines."""
    return {
        path.name: "".join(
            line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith(_VARYING)
        )
        for path in sorted(folder.iterdir())
    }


def stored_case(command: str, seed: int) -> dict[str, str]:
    folder = GOLDEN / str(seed) / command
    return {path.name: path.read_text() for path in sorted(folder.iterdir())}


def digest(texts: dict[str, str]) -> str:
    """sha256 of a case's files, names and texts in name order."""
    hasher = hashlib.sha256()
    for name in sorted(texts):
        hasher.update(f"{name}\n{texts[name]}".encode())
    return hasher.hexdigest()


_SEPARATORS = re.compile(r"([\s,=]+)")
_INTEGER = re.compile(r"[+-]?\d+")


def _same_token(a: str, b: str) -> bool:
    """Text, integers and booleans compare exactly; floats to 1e-12
    relative, since a CPU's libm and BLAS kernel choice can move their
    last bits."""
    if a == b:
        return True
    if _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b):
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)


def differences(expected: str, actual: str) -> list[str]:
    """The lines of ``actual`` that do not match ``expected``."""
    want, got = expected.splitlines(), actual.splitlines()
    if len(want) != len(got):
        return [f"{len(got)} lines, expected {len(want)}"]
    found = []
    for number, (line_want, line_got) in enumerate(zip(want, got), 1):
        tokens_want, tokens_got = _SEPARATORS.split(line_want), _SEPARATORS.split(line_got)
        if len(tokens_want) != len(tokens_got) or not all(
            map(_same_token, tokens_want, tokens_got)
        ):
            found.append(f"line {number}: {line_got!r}, expected {line_want!r}")
    return found


def main() -> int:
    for seed in SEEDS:
        for command in CASES:
            with tempfile.TemporaryDirectory() as workdir:
                texts = run_case(command, seed, Path(workdir))
            folder = GOLDEN / str(seed) / command
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir(parents=True)
            for name, text in texts.items():
                (folder / name).write_text(text)
            print(f"{seed} {command} {digest(texts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
