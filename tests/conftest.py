"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """Run the test at CPython's default int/str conversion limit, 4300
    digits (Python 3.11 on; None before), check that the test left the
    limit there, and restore the old limit after."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    left = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before)
    assert left == 4300, f"the test moved the digit limit to {left}"
