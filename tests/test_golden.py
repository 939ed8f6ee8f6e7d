"""Every CLI command's outputs against the golden corpus (see
golden_corpus.py, which also rewrites the corpus).  Each case prints the
sha256 of the text it wrote, and whether that text is bitwise the stored
text (run pytest with -s to see them)."""

import pytest

from golden_corpus import CASES, SEEDS, differences, digest, run_case, stored_case


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", list(CASES))
def test_outputs_match_the_corpus(tmp_path, command, seed):
    actual = run_case(command, seed, tmp_path)
    expected = stored_case(command, seed)
    same = "bitwise identical" if digest(actual) == digest(expected) else "not bitwise identical"
    print(f"golden {seed} {command}: sha256 {digest(actual)} ({same})")
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        assert not differences(text, actual[name]), (name, differences(text, actual[name]))


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
