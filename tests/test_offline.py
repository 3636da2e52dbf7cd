"""The offline mechanisms against brute-force references.

``add_off`` and ``subst_off`` run on the online kernels, on the one-slot
game an offline game degenerates to.  These properties check them against
references that share no code with those kernels: per optimization, the
equal share by subset enumeration, and the substitutable phase loop over a
pinned-bid map (``oracles._reference_phases``).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from optshare.core import AdditiveOfflineBid, Optimization, SubstitutableOfflineBid
from optshare.shapley import add_off
from optshare.substitutable import subst_off

from oracles import _reference_phases, equal_share_payments

F = Fraction

money = st.integers(min_value=0, max_value=400).map(lambda n: F(n, 100))
cost_st = st.integers(min_value=1, max_value=600).map(lambda n: F(n, 100))


@st.composite
def additive_offline_games(draw):
    """A catalog of one to three optimizations and up to seven bids, each
    valuing any of them, zero values included."""
    costs = draw(st.lists(cost_st, min_size=1, max_size=3))
    catalog = tuple(Optimization(j, c) for j, c in enumerate(costs, 1))
    values = draw(st.dictionaries(st.integers(0, 9), st.dictionaries(st.integers(1, len(costs)), money), max_size=7))
    return catalog, tuple(AdditiveOfflineBid(u, v) for u, v in values.items())


@given(additive_offline_games())
@settings(max_examples=300)
def test_add_off_is_the_equal_share_of_each_column(game):
    catalog, bids = game
    implemented, grants, entries = set(), set(), {}
    for opt in catalog:
        serviced, share, _ = equal_share_payments(opt.cost, {b.user: b.value_for(opt.id) for b in bids})
        if serviced:
            implemented.add(opt.id)
            grants.update((u, opt.id) for u in serviced)
            entries.update(((u, opt.id), share) for u in serviced)
    result = add_off(catalog, bids)
    assert result.outcome.implemented == implemented
    assert result.outcome.grants == grants
    assert result.ledger.entries == entries


@st.composite
def integer_subst_offline_games(draw):
    """Integer costs and values on a catalog of one to four optimizations:
    coarse enough that shares tie."""
    costs = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    ids = list(range(1, len(costs) + 1))
    bids = draw(
        st.dictionaries(
            st.integers(0, 9),
            st.tuples(st.frozensets(st.sampled_from(ids), min_size=1), st.integers(1, 30)),
            max_size=7,
        )
    )
    return dict(zip(ids, costs)), bids


@given(integer_subst_offline_games())
@settings(max_examples=300)
def test_subst_off_phases_are_the_reference_phase_loop(game):
    """The outcome and ledger ``grant`` settles, and the phase log the full
    phase loop builds from them, against the reference phase loop."""
    costs, bids = game
    catalog = tuple(Optimization(j, F(c)) for j, c in costs.items())
    res = subst_off(catalog, [SubstitutableOfflineBid(u, subs, F(v)) for u, (subs, v) in bids.items()])
    offers = sorted(((v, u) for u, (_, v) in bids.items()), reverse=True)
    want = _reference_phases(costs, offers, {u: subs for u, (subs, _) in bids.items()}, {})
    assert [(p.opt, p.serviced, p.tied_with) for p in res.phases] == [
        (opt, frozenset(serviced), ties) for opt, serviced, ties in want
    ]
    assert all(p.share == F(costs[p.opt], len(p.serviced)) for p in res.phases)
    assert res.ledger.entries == {(u, p.opt): p.share for p in res.phases for u in p.serviced}
    assert res.outcome.implemented == {p.opt for p in res.phases}
