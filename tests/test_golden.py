"""Every CLI command's outputs against the golden corpus (see
golden_corpus.py, which also rewrites the corpus).  Each case prints the
sha256 of the text it wrote, and whether that text is bitwise the stored
text (run pytest with -s to see them).  The six suites also run as
``python -m reprogram_lab.cli`` processes under one and two OpenBLAS
threads, so no verdict depends on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_corpus import (
    CASES,
    SEEDS,
    differences,
    digest,
    read_outputs,
    run_case,
    stored_case,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_matches_corpus(label: str, actual: dict[str, str], expected: dict[str, str]) -> None:
    same = "bitwise identical" if digest(actual) == digest(expected) else "not bitwise identical"
    print(f"golden {label}: sha256 {digest(actual)} ({same})")
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        assert not differences(text, actual[name]), (name, differences(text, actual[name]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", list(CASES))
def test_outputs_match_the_corpus(tmp_path, command, seed):
    assert_matches_corpus(f"{seed} {command}", run_case(command, seed, tmp_path),
                          stored_case(command, seed))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", [
    "verify-theorem1", "sweep-corollary1", "verify-theorem2", "verify-corollary2",
    "verify-proposition", "verify-appendix-a",
])
def test_cli_process_matches_the_corpus_under_blas_threads(tmp_path, command, threads):
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": threads,
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    result = subprocess.run(
        [sys.executable, "-m", "reprogram_lab.cli", command, *CASES[command],
         "--seed", "8191", "--output_dir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode in (0, 1), result.stderr
    assert_matches_corpus(f"8191 {command} under OPENBLAS_NUM_THREADS={threads}",
                          read_outputs(tmp_path / "out"), stored_case(command, 8191))


@pytest.mark.parametrize("expected,actual,same", [
    ("measured.x = 0.12345678901234567", "measured.x = 0.12345678901234569", True),
    ("measured.x = 0.123456789012", "measured.x = 0.123456789013", False),
    ("measured.x = 1", "measured.x = 0.99999999999999989", True),
    ("measured.steps_used = 7002", "measured.steps_used = 7003", False),
    ("passed = true", "passed = false", False),
    ("3,0.5,nan", "3,0.5,nan", True),
    ("3,0.5", "3,0.5,0.5", False),
])
def test_floats_match_to_1e_12_and_the_rest_exactly(expected, actual, same):
    assert (differences(expected, actual) == []) is same
