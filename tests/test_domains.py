"""The two input rules, each checked where input enters: an expansion
point must be > 0 (``engine._expansion_points``) and a rate must be >= 0
(``utility.transform``). Every entry point that applies a rule rejects a
value outside its domain with the rule's exception, naming the argument,
and lets a NaN through, with no RuntimeWarning (warnings are errors)."""

import math
import re

import pytest

from helpers import DOMAIN_RULES, domain_entries

ENTRIES = domain_entries()
REJECTED = [(name, v) for name, (_, rule, _) in sorted(ENTRIES.items())
            for v in DOMAIN_RULES[rule][2]]


@pytest.mark.parametrize("name,value", REJECTED)
def test_entry_point_rejects_a_value_outside_its_domain(name, value):
    arg, rule, call = ENTRIES[name]
    with pytest.raises(DOMAIN_RULES[rule][0], match=re.escape(arg)):
        call(value)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_point_lets_nan_through(name):
    ENTRIES[name][2](math.nan)
