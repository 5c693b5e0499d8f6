"""Tests for dotted-quad address parsing and rendering."""

from __future__ import annotations

import pytest

from repro.net.flow import format_address, parse_address


def test_address_round_trip():
    for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.10"):
        assert format_address(parse_address(text)) == text


def test_parse_address_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_address("10.0.0")
    with pytest.raises(ValueError):
        parse_address("10.0.0.256")


def test_format_address_rejects_out_of_range():
    with pytest.raises(ValueError):
        format_address(1 << 32)
