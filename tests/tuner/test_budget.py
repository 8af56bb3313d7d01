"""TunerBudget semantics: validation, the admit/cut split, the dict form."""

from __future__ import annotations

import pytest

from repro.errors import StrategyError
from repro.tuner import TunerBudget


class TestValidation:
    def test_unbounded_by_default(self):
        budget = TunerBudget()
        assert budget.max_candidates is None

    def test_rejects_zero_candidates(self):
        with pytest.raises(StrategyError, match="max_candidates"):
            TunerBudget(max_candidates=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_candidates": "3"},
            {"max_candidates": True},
            {"max_candidates": 2.0},
        ],
        ids=repr,
    )
    def test_rejects_values_that_are_not_numbers(self, fields):
        field = next(iter(fields))
        with pytest.raises(StrategyError, match=field):
            TunerBudget(**fields)


class TestSplit:
    def test_split_truncates_in_order(self):
        admitted, cut = TunerBudget(max_candidates=2).split(["a", "b", "c", "d"])
        assert admitted == ["a", "b"]
        assert cut == ["c", "d"]

    def test_split_without_cap_admits_everything(self):
        admitted, cut = TunerBudget().split(["a", "b"])
        assert admitted == ["a", "b"]
        assert cut == []


class TestRoundTrip:
    def test_dict_round_trip(self):
        budget = TunerBudget(max_candidates=8)
        assert TunerBudget(**budget.to_dict()) == budget

    def test_from_dict_rejects_unknown_fields(self):
        """A budget is rebuilt from its dict by the constructor, which
        rejects a field it does not have."""
        with pytest.raises(TypeError, match="jobs"):
            TunerBudget(**{"max_candidates": 4, "jobs": 2})

    def test_from_none_is_unbounded(self):
        unbounded = TunerBudget(**TunerBudget().to_dict())
        assert unbounded == TunerBudget()
