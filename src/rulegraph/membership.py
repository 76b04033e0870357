"""Ordinal membership labels used by rule antecedents, thresholds and fusion tie-breaks.

Membership is expressed as one of six discrete term labels with a total order

    H > SH > M > ML > Lr > L

rather than a numeric degree. Labels arrive as free-form text from model
output, so parsing accepts short and long aliases case-insensitively and
fails loudly on anything else.
"""

from __future__ import annotations

import enum
import functools


class UnrecognizedLabel(ValueError):
    """Raised when a token matches no known membership alias."""


_TOKENS = ("L", "Lr", "ML", "M", "SH", "H")  # indexed by label value


@functools.total_ordering
class MembershipLabel(enum.Enum):
    """Six-level ordinal membership degree; higher value means stronger membership.

    token is the canonical short token, the serialized form in traces and
    datasets. Labels compare only with labels.
    """

    L = 0
    LR = 1
    ML = 2
    M = 3
    SH = 4
    H = 5

    def __init__(self, value: int) -> None:
        self.token = _TOKENS[value]

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, MembershipLabel):
            return NotImplemented
        return self._value_ < other._value_

    def __str__(self) -> str:
        return self.token


_LONG_FORMS = {
    MembershipLabel.H: "High",
    MembershipLabel.SH: "Sub-High",
    MembershipLabel.M: "Medium",
    MembershipLabel.ML: "Mid-Low",
    MembershipLabel.LR: "Lower",
    MembershipLabel.L: "Low",
}

# Short and long forms only; anything else is an error rather than a guess.
_ALIASES = {
    **{label.token.casefold(): label for label in MembershipLabel},
    **{long.casefold(): label for label, long in _LONG_FORMS.items()},
}


def parse_label(text: str) -> MembershipLabel:
    """Parse a free-form token into a label.

    Accepts the canonical short tokens (H, SH, M, ML, Lr, L) and their long
    forms (High, Sub-High, Medium, Mid-Low, Lower, Low), case-insensitively,
    with surrounding whitespace ignored.

    Raises:
        UnrecognizedLabel: the token is not a string, or no alias matched;
            the caller decides whether to retry the upstream model call.
    """
    if not isinstance(text, str):
        raise UnrecognizedLabel(f"membership token must be a string, got {type(text).__name__}: {text!r}")
    if not text.strip():
        raise UnrecognizedLabel(f"empty membership token: {text!r}")
    key = text.strip().casefold()
    try:
        return _ALIASES[key]
    except KeyError:
        raise UnrecognizedLabel(f"unknown membership token: {text!r}") from None
