"""The gain rule that ``bench/pairs.py`` records for each end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _pairs(parent, change):
    """Pairs in the shape ``summarize`` reads, with the same value on every
    end-to-end metric."""
    return [{side: {"metrics": dict.fromkeys(pairs.END_TO_END, v)}
             for side, v in (("parent", p), ("change", c))} for p, c in zip(parent, change)]


PARENT = [3.0, 3.1, 3.2, 3.0, 2.9, 3.1, 3.0, 3.2, 2.9, 3.0]


@pytest.mark.parametrize("change,wins,holds", [
    ([p - 1.0 for p in PARENT], "10/10", True),
    # a tie counts for neither side: 9 wins still hold
    ([p - 1.0 for p in PARENT[:9]] + [PARENT[9]], "9/10", True),
    # two ties leave 8 wins
    ([p - 1.0 for p in PARENT[:8]] + PARENT[8:], "8/10", False),
    # 10 wins by less than the parent's interquartile range (0.1 here)
    ([p - 0.05 for p in PARENT], "10/10", False),
])
def test_gain_rule(change, wins, holds):
    summary = pairs.summarize(_pairs(PARENT, change))
    for metric in pairs.END_TO_END:
        assert summary["change_wins"][metric] == wins
        rule = summary["gain_rule"][metric]
        assert rule["holds"] is holds
        assert rule["holds"] == (rule["wins_enough"] and rule["gap_exceeds_iqr"])
        assert rule["parent_iqr"] == pytest.approx(0.1)
