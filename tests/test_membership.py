import itertools
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulegraph.membership import (
    MembershipLabel,
    UnrecognizedLabel,
    parse_label,
)

ORDER_HIGH_TO_LOW = [
    MembershipLabel.H,
    MembershipLabel.SH,
    MembershipLabel.M,
    MembershipLabel.ML,
    MembershipLabel.LR,
    MembershipLabel.L,
]


def test_exactly_six_labels():
    assert len(MembershipLabel) == 6
    assert list(MembershipLabel) == ORDER_HIGH_TO_LOW[::-1]


def test_total_order_over_all_pairs():
    for a, b in itertools.product(MembershipLabel, repeat=2):
        ia, ib = ORDER_HIGH_TO_LOW.index(a), ORDER_HIGH_TO_LOW.index(b)
        assert (a < b) == (ia > ib)
        assert (a == b) == (ia == ib)
        assert (a > b) == (ia < ib)
        assert (a <= b) == (ia >= ib)
        assert (a >= b) == (ia <= ib)


def test_tokens_in_value_order():
    assert [label.token for label in MembershipLabel] == ["L", "Lr", "ML", "M", "SH", "H"]
    assert [str(label) for label in MembershipLabel] == ["L", "Lr", "ML", "M", "SH", "H"]


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_comparing_with_an_int_is_a_type_error(compare):
    for label in MembershipLabel:
        with pytest.raises(TypeError):
            compare(label, label.value)
        with pytest.raises(TypeError):
            compare(label.value, label)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Mid-Low", MembershipLabel.ML),
        ("H", MembershipLabel.H),
        ("  sub-high ", MembershipLabel.SH),
        ("LOW", MembershipLabel.L),
        ("lr", MembershipLabel.LR),
        ("Lower", MembershipLabel.LR),
        ("medium", MembershipLabel.M),
        ("High", MembershipLabel.H),
        ("ml", MembershipLabel.ML),
    ],
)
def test_parse_aliases(text, expected):
    assert parse_label(text) is expected


def test_parse_render_round_trip():
    long_forms = ["High", "Sub-High", "Medium", "Mid-Low", "Lower", "Low"]
    for label, long_form in zip(ORDER_HIGH_TO_LOW, long_forms):
        assert parse_label(label.token) is label
        assert parse_label(long_form) is label


@pytest.mark.parametrize("bad", ["", "  ", "very high", "MLL", "mid low", "0.7", "sub high"])
def test_parse_rejects_unknown_tokens(bad):
    with pytest.raises(UnrecognizedLabel):
        parse_label(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        (5, "membership token must be a string, got int: 5"),
        (None, "membership token must be a string, got NoneType: None"),
        (True, "membership token must be a string, got bool: True"),
        (["H"], "membership token must be a string, got list: ['H']"),
        ("  ", "empty membership token: '  '"),
    ],
)
def test_parse_names_what_is_wrong_with_a_token(bad, message):
    with pytest.raises(UnrecognizedLabel) as err:
        parse_label(bad)
    assert str(err.value) == message


@given(st.sampled_from(list(MembershipLabel)), st.sampled_from(list(MembershipLabel)))
def test_trichotomy(a, b):
    assert sum([a < b, a == b, a > b]) == 1


@given(
    st.sampled_from(list(MembershipLabel)),
    st.sampled_from(list(MembershipLabel)),
    st.sampled_from(list(MembershipLabel)),
)
def test_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c
