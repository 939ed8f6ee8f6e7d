"""Fuzz tests for the parsers of outside input: the text and PPM image
records and the command-line configuration.  Each may reject its input only
with ConfigError, which the command line reports as a configuration error,
and must return promptly."""

import contextlib
import os
import signal
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reprogram_lab import cli
from reprogram_lab.errors import ConfigError
from reprogram_lab.reprogram import ProgramImage, image_from_ppm, image_from_text


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"parser ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def parses_or_names(parser, data, error):
    """The parser returns, or raises ``error``, within a second."""
    with time_limit(1.0):
        try:
            return parser(data)
        except error:
            return None


# header fields and values, well formed or nearly so
_NUMBER = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.integers(10**15, 10**40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text("0123456789+-._e١x", min_size=1, max_size=6),
)
_SPACE = st.sampled_from([" ", "\n", "\t", "  ", "\r\n", "　"])


@st.composite
def text_records(draw):
    tokens = draw(st.lists(_NUMBER, max_size=30))
    return "".join(token + draw(_SPACE) for token in tokens)


@st.composite
def ppm_records(draw):
    fields = [draw(st.sampled_from(["P6", "P3", "p6", ""]))]
    fields += draw(st.lists(_NUMBER, min_size=0, max_size=4))
    comment = draw(st.sampled_from(["", "# note\n", "#"]))
    head = comment + "".join(field + draw(_SPACE) for field in fields)
    return head.encode("utf-8") + draw(st.binary(max_size=64))


class TestImageParsers:
    @given(st.one_of(st.text(max_size=200), text_records()))
    def test_text_image_raises_only_value_error(self, text):
        image = parses_or_names(image_from_text, text, ConfigError)
        assert image is None or isinstance(image, ProgramImage)

    @given(st.one_of(st.binary(max_size=200), ppm_records()))
    def test_ppm_image_raises_only_value_error(self, data):
        image = parses_or_names(image_from_ppm, data, ConfigError)
        assert image is None or isinstance(image, ProgramImage)


_COMMANDS = sorted(cli._COMMANDS)


@st.composite
def config_pairs(draw, command):
    keys = sorted(set(cli._COMMANDS[command][0]) - {"config"})
    key = st.one_of(st.sampled_from(keys), st.text(max_size=8).filter(lambda k: k != "config"))
    value = st.one_of(
        st.sampled_from(["0", "-1", "1", "1" + "0" * 400, "1e400", "nan", "", "no", "1,2", ","]),
        _NUMBER,
        st.text(max_size=12),
    )
    return draw(st.lists(st.tuples(key, value), max_size=6))


class TestParseConfig:
    @pytest.mark.parametrize("command", _COMMANDS)
    @given(data=st.data())
    def test_command_line_raises_only_config_error(self, command, data):
        argv = [
            token for key, value in data.draw(config_pairs(command))
            for token in (f"--{key}", value)
        ]
        argv += data.draw(st.lists(st.text(max_size=8), max_size=2))  # stray tokens
        values = parses_or_names(lambda args: cli.parse_config(command, args), argv, ConfigError)
        assert values is None or values["seed"] is not None

    @pytest.mark.parametrize("command", _COMMANDS)
    @given(data=st.data())
    def test_config_file_raises_only_config_error(self, command, data):
        lines = [f"{key} = {value}" for key, value in data.draw(config_pairs(command))]
        lines += data.draw(st.lists(st.text(max_size=16), max_size=2))  # stray lines
        fd, path = tempfile.mkstemp(suffix=".cfg")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", errors="surrogatepass") as handle:
                handle.write("\n".join(lines))
            values = parses_or_names(
                lambda args: cli.parse_config(command, args), ["--config", path], ConfigError
            )
        finally:
            os.unlink(path)
        assert values is None or values["seed"] is not None
