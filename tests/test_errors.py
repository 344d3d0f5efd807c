"""Tests for the shared exception types."""

import pickle

import pytest

from lwirange.errors import ConfigError, LwirError, SpectrumParseError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# LwirError and every subclass, a new one included; the ones whose
# constructors take more than a message get their own arguments
_SPECIAL = {
    ConfigError: lambda: ConfigError(["x bad", "y bad"]),
    SpectrumParseError: lambda: SpectrumParseError("a.csv", 3, "bad"),
}
_CLASSES = sorted({LwirError, *_subclasses(LwirError)}, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_round_trips_through_pickle(cls):
    exc = _SPECIAL.get(cls, lambda: cls("something went wrong"))()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for attr in ("violations", "path", "line_no"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)


def test_round_trip_keeps_the_arguments():
    back = pickle.loads(pickle.dumps(ConfigError(["x bad", "y bad"])))
    assert back.violations == ["x bad", "y bad"]
    assert str(back) == "x bad; y bad"
    back = pickle.loads(pickle.dumps(SpectrumParseError("a.csv", 3, "bad")))
    assert (back.path, back.line_no, str(back)) == ("a.csv", 3, "a.csv:3: bad")
