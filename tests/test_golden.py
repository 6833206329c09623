"""Traces, metrics and batch schedules must match the committed golden
files byte for byte; `tests/make_golden.py` is the only way to rewrite
them."""

import functools

import pytest

from make_golden import GOLDEN, golden_files

expected = functools.cache(golden_files)


def test_golden_file_set_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_output_matches_golden_file(name):
    assert (GOLDEN / name).read_bytes() == expected()[name].encode("utf-8")
