"""The pair schedule of ``bench/pairs.py`` and the gain rule it records for
each end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _pairs(parent, change):
    """Pairs in the shape ``summarize`` reads, in the order of ``schedule``,
    with the same value on every end-to-end metric."""
    return [{"seed": seed, "first": first,
             **{side: {"metrics": dict.fromkeys(pairs.END_TO_END, v)}
                for side, v in (("parent", p), ("change", c))}}
            for (seed, first), p, c in zip(pairs.schedule(), parent, change)]


PARENT = [3.0, 3.1, 3.2, 3.0, 2.9, 3.1, 3.0, 3.2, 2.9, 3.0, 3.1, 3.0]


@pytest.mark.parametrize("change,wins,holds", [
    ([p - 1.0 for p in PARENT], "12/12", True),
    # a tie counts for neither side: 11 wins still hold
    ([p - 1.0 for p in PARENT[:11]] + [PARENT[11]], "11/12", True),
    # two ties leave 10 wins, fewer than 9 of every 10 pairs
    ([p - 1.0 for p in PARENT[:10]] + PARENT[10:], "10/12", False),
    # 12 wins by less than the parent's interquartile range (0.1 here)
    ([p - 0.05 for p in PARENT], "12/12", False),
])
def test_gain_rule(change, wins, holds):
    summary = pairs.summarize(_pairs(PARENT, change))
    for metric in pairs.END_TO_END:
        assert summary["change_wins"][metric] == wins
        rule = summary["gain_rule"][metric]
        assert rule["holds"] is holds
        assert rule["holds"] == (rule["wins_enough"] and rule["gap_exceeds_iqr"])
        assert rule["parent_iqr"] == pytest.approx(0.1)


def test_every_seed_runs_in_both_orders():
    # the side that runs first switches after each round of the seeds, and
    # every seed runs first on each side equally often (with the first side
    # switching every pair and two seeds, each seed's pairs always ran the
    # same side first; at 10 pairs the parent ran first in 6)
    plan = pairs.schedule()
    assert len(plan) == pairs.PAIRS == 12
    per_order = pairs.PAIRS // (2 * len(pairs.SEEDS))
    for seed in pairs.SEEDS:
        firsts = [first for s, first in plan if s == seed]
        assert firsts.count("parent") == firsts.count("change") == per_order
    firsts = [first for _, first in plan]
    assert firsts.count("parent") == firsts.count("change") == pairs.PAIRS // 2


def test_wins_are_reported_per_seed_and_per_first_side():
    # the change wins the pairs in which it ran first, and no other
    plan = pairs.schedule()
    change = [p - 1.0 if first == "change" else p + 1.0 for p, (_, first) in zip(PARENT, plan)]
    summary = pairs.summarize(_pairs(PARENT, change))
    n_change_first = sum(first == "change" for _, first in plan)
    for metric in pairs.END_TO_END:
        assert summary["change_wins"][metric] == f"{n_change_first}/{pairs.PAIRS}"
        assert summary["change_wins_by_first"][metric] == {
            "change": f"{n_change_first}/{n_change_first}",
            "parent": f"0/{pairs.PAIRS - n_change_first}"}
        by_seed = summary["change_wins_by_seed"][metric]
        assert sorted(by_seed) == sorted(str(seed) for seed in pairs.SEEDS)
        for seed in pairs.SEEDS:
            firsts = [first for s, first in plan if s == seed]
            assert by_seed[str(seed)] == f"{firsts.count('change')}/{len(firsts)}"
