"""A ``RateMethod`` checks its declaration when it is built.

A ``needs`` that is neither ``"none"`` nor a flag ``OUTCOMES`` names a lack
for, or a ``kind`` that names no cell layout, raises ``ValueError`` listing
the allowed values, instead of failing at the first kernel call.
"""

import re

import pytest

from quantlink.rates import RateMethod


def _formula(x):
    return x.nans(1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(needs="ci_feasable"), "needs must be 'none' or one of ('ci_feasible', 'full_rank'), got 'ci_feasable'"),
        (dict(needs=""), "needs must be 'none' or one of ('ci_feasible', 'full_rank'), got ''"),
        (dict(kind="bitz"), "kind must be one of ('bits', 'onebit', 'unquantized'), got 'bitz'"),
    ],
)
def test_a_bad_declaration_is_rejected(kwargs, message):
    spec = dict(kind="bits", kernel=_formula) | kwargs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RateMethod(**spec)


@pytest.mark.parametrize("needs", ["none", "ci_feasible", "full_rank"])
@pytest.mark.parametrize("kind", ["bits", "onebit", "unquantized"])
def test_every_allowed_declaration_builds(kind, needs):
    assert RateMethod(kind, _formula, needs=needs).needs == needs

