"""Tests for modular sequence-number arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.seqnum import (
    IPID_MODULO,
    SEQ_MODULO,
    ipid_diff,
    seq_add,
    seq_diff,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)


def test_seq_add_wraps():
    assert seq_add(SEQ_MODULO - 1, 1) == 0
    assert seq_add(SEQ_MODULO - 1, 5) == 4


def test_seq_diff_simple():
    assert seq_diff(5, 2) == 3
    assert seq_diff(2, 5) == -3


def test_seq_diff_across_wrap():
    near_top = SEQ_MODULO - 2
    assert seq_diff(1, near_top) == 3
    assert seq_diff(near_top, 1) == -3


def test_ordering_predicates():
    assert seq_lt(2, 5)
    assert seq_le(5, 5)
    assert seq_gt(5, 2)
    assert seq_ge(5, 5)
    assert not seq_lt(5, 2)


def test_ordering_across_wrap():
    near_top = SEQ_MODULO - 10
    assert seq_gt(5, near_top)
    assert seq_lt(near_top, 5)


def test_ipid_diff_uses_16_bit_space():
    assert ipid_diff(1, IPID_MODULO - 1) == 2
    assert ipid_diff(IPID_MODULO - 1, 1) == -2


def test_ipid_diff_orders_across_the_wrap():
    assert ipid_diff(IPID_MODULO - 3, 2) < 0
    assert ipid_diff(2, IPID_MODULO - 3) > 0


# The comparisons compute ``(a - b) % modulo`` themselves; pin them to the
# sign of seq_diff, the definition they replaced, on both spaces and across
# the wrap (values near 0, near the top, and half a space apart).
def _space_values(modulo: int):
    half = modulo // 2
    edges = st.sampled_from([0, 1, half - 1, half, half + 1, modulo - 2, modulo - 1])
    return st.one_of(edges, st.integers(min_value=0, max_value=modulo - 1))


@pytest.mark.parametrize("modulo", (SEQ_MODULO, IPID_MODULO), ids=("seq", "ipid"))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_comparisons_agree_with_the_sign_of_seq_diff(modulo, data):
    a = data.draw(_space_values(modulo), label="a")
    b = data.draw(st.one_of(_space_values(modulo), st.just(a)), label="b")
    diff = seq_diff(a, b, modulo)
    assert seq_lt(a, b, modulo) is (diff < 0)
    assert seq_le(a, b, modulo) is (diff <= 0)
    assert seq_gt(a, b, modulo) is (diff > 0)
    assert seq_ge(a, b, modulo) is (diff >= 0)
