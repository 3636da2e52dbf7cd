"""The sweep's fold of settle runs against a per-point fold.

The harness folds each mechanism's settle runs into moment sums on a
difference array over the sorted cost points (``harness.RunSums``) and
builds every cell once, from the sums at the point's unit.  The reference
here expands each run to one row per point it covers (``scaled.point_rows``)
and adds every row to its cell with ``CellStats.add``.  A cell's
denominator differs between the two (the runs' is the lcm over every point
of the mechanism), so cells are compared by their trial and implemented
counts, their mean and variance ``Fraction``s and their CSV columns.
"""

import os
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from optshare.additive_online import serve
from optshare.harness import FAMILY_MECHANISMS, CellStats, RunSums, sweep
from optshare.regret import trigger
from optshare.scaled import Factors, point_rows
from optshare.scenarios import FAMILIES, ScaledTrials
from optshare.substitutable import grant

from oracles import each_point
from test_scaled import positive_money, specs

F = Fraction
KERNELS = {"add_on": serve, "subst_on": grant, "regret": trigger}


def same_cell(got: CellStats, want: CellStats):
    assert (got.n, got.implemented) == (want.n, want.implemented)
    assert (got.mean_utility, got.var_utility) == (want.mean_utility, want.var_utility)
    assert (got.mean_balance, got.var_balance) == (want.mean_balance, want.var_balance)
    assert got.columns() == want.columns()


@st.composite
def trial_runs(draw, positions):
    """One trial's runs over ``positions`` sorted points: the first starts at
    0, and each run's values have random signs over a denominator drawn so
    that the sums widen within a trial and between trials."""
    firsts = sorted({0} | set(draw(st.lists(st.integers(0, positions - 1), max_size=positions))))
    value = st.integers(-(10**9), 10**9)
    den = st.sampled_from((1, 2, 3, 4, 6, 7, 10, 12, 35, 64, 97 * 3, 2**40))
    return [(k, draw(value), draw(value), draw(value), draw(value), draw(den), draw(st.booleans())) for k in firsts]


@st.composite
def run_slices(draw):
    """Units of the sorted points and the runs of each trial, cut into
    contiguous slices of trials."""
    units = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=8)))
    trials = draw(st.lists(trial_runs(len(units)), min_size=1, max_size=8))
    cuts = sorted(set(draw(st.lists(st.integers(1, len(trials) - 1), max_size=3)))) if len(trials) > 1 else []
    bounds = [0, *cuts, len(trials)]
    return units, [trials[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@given(data=run_slices())
@settings(max_examples=300, deadline=None)
def test_run_sums_equal_adding_each_point_row(data):
    units, slices = data
    order = range(len(units))
    want = [CellStats() for _ in units]
    for trials in slices:
        for runs in trials:
            for cell, row in zip(want, point_rows(runs, units, order)):
                cell.add(*row)
    merged = None
    for trials in slices:
        sums = RunSums(len(units))
        for runs in trials:
            sums.add(runs)
        cells = sums.cells(units)
        assert len({cell.den for cell in cells}) == 1  # one denominator per mechanism
        if merged is None:
            merged = cells
        else:
            for cell, part in zip(merged, cells):
                cell.merge(part)
    for got, cell in zip(merged, want):
        same_cell(got, cell)


def per_point_cells(spec, mechanisms, costs):
    """Every cell of a sweep, from one kernel run per (trial, cost point),
    each row added with ``CellStats.add``."""
    games = ScaledTrials(spec, Factors([c / spec.cost for c in costs]))
    cells = {(m, c): CellStats() for m in mechanisms for c in costs}
    for trial in range(spec.trials):
        game = games.game(trial)
        for m in mechanisms:
            for cost, row in zip(costs, each_point(KERNELS[m], game)):
                cells[m, cost].add(*row)
    return cells


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sweep_cells_equal_a_per_point_fold_on_every_family(data):
    """Random unsorted cost sweeps, one point long too, on every family, at
    one and two processes."""
    for family in FAMILIES:
        spec = data.draw(specs(family))
        costs = tuple(data.draw(st.lists(positive_money, min_size=1, max_size=6, unique=True)))
        mechanisms = sorted(FAMILY_MECHANISMS[family])
        want = per_point_cells(spec, mechanisms, costs)
        for workers in (1, 2):
            with mock.patch.object(os, "cpu_count", lambda: 2):
                got = sweep(spec, mechanisms, costs, workers=workers)
            assert list(got) == list(want)
            for key, cell in want.items():
                same_cell(got[key], cell)
