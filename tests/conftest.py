"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """Run the test at CPython's default int/str conversion limit, 4300
    digits (Python 3.11 on; None before), and restore the old limit after."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def current_digit_limit():
    """The interpreter's int/str conversion limit, None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()
