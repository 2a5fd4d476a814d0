"""``ModelPolicy.with_depth``: only the crossing rules and the CCR size move."""

import dataclasses

import pytest

from repro.compiler.models import MODELS
from repro.compiler.policy import UNLIMITED, CrossingRule, ModelPolicy

RULES = ("safe", "unsafe", "load", "store")

POLICIES = list(MODELS.values()) + [
    dataclasses.replace(
        MODELS["region_pred"], name="region_pred+shared",
        share_equivalent_joins=True,
    )
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize(
    "max_conditions, crossing", [(4, 2), (8, UNLIMITED), (1, 0)]
)
def test_with_depth_keeps_every_other_field(policy, max_conditions, crossing):
    clamped = policy.with_depth(max_conditions, crossing)
    assert type(clamped) is ModelPolicy
    for field in dataclasses.fields(ModelPolicy):
        if field.name in RULES or field.name == "max_conditions":
            continue
        assert getattr(clamped, field.name) == getattr(
            policy, field.name
        ), field.name
    assert clamped.max_conditions == max_conditions
    for name in RULES:
        rule: CrossingRule = getattr(policy, name)
        expected = (
            rule
            if rule.depth == 0
            else CrossingRule(min(rule.depth, crossing), rule.mechanism)
        )
        assert getattr(clamped, name) == expected, name
