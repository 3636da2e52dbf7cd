import importlib
import inspect
import pkgutil
import typing
from fractions import Fraction

import pytest

import optshare

from optshare.core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    CatalogMismatch,
    GameError,
    Optimization,
    Outcome,
    PaymentLedger,
    ServiceSchedule,
    SlotHorizon,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    validate_revision,
)

from oracles import cost_of_outcome, grand_total, residual_from, schedule_opts, value_of_outcome

F = Fraction


def test_optimization_requires_positive_cost():
    with pytest.raises(GameError):
        Optimization(1, F(0))
    with pytest.raises(GameError):
        Optimization(1, F(-3))


def test_horizon_bounds():
    assert list(SlotHorizon(3).slots()) == [1, 2, 3]
    with pytest.raises(GameError):
        SlotHorizon(0)


def test_outcome_rejects_grant_without_implementation():
    with pytest.raises(GameError):
        Outcome(frozenset({1}), frozenset({(7, 2)}))


def test_value_of_outcome():
    bid = AdditiveOfflineBid(5, {1: F(100), 2: F(60)})
    outcome = Outcome(frozenset({1, 2}), frozenset({(5, 1)}))
    assert value_of_outcome(bid, outcome) == F(100)
    assert value_of_outcome(bid, Outcome(frozenset(), frozenset())) == 0
    both = Outcome(frozenset({1, 2}), frozenset({(5, 1), (5, 2)}))
    assert value_of_outcome(AdditiveOfflineBid(5, {1: F(3), 2: F(4)}), both) == F(7)


def test_value_is_additive_over_disjoint_grants():
    bid = AdditiveOfflineBid(1, {1: F(3), 2: F(4), 3: F(9)})
    g1 = Outcome(frozenset({1, 2, 3}), frozenset({(1, 1)}))
    g2 = Outcome(frozenset({1, 2, 3}), frozenset({(1, 2), (1, 3)}))
    union = Outcome(frozenset({1, 2, 3}), g1.grants | g2.grants)
    assert value_of_outcome(bid, union) == value_of_outcome(bid, g1) + value_of_outcome(bid, g2)


def test_cost_of_outcome():
    catalog = [Optimization(1, F(60)), Optimization(2, F(180)), Optimization(3, F(100))]
    outcome = Outcome(frozenset({1, 3}), frozenset())
    assert cost_of_outcome(catalog, outcome) == F(160)
    assert cost_of_outcome(catalog, Outcome(frozenset(), frozenset())) == 0
    assert cost_of_outcome(catalog[:1], Outcome(frozenset({1}), frozenset())) == F(60)
    with pytest.raises(CatalogMismatch):
        cost_of_outcome(catalog[:1], Outcome(frozenset({9}), frozenset()))


def test_bid_validation():
    with pytest.raises(GameError):
        AdditiveOfflineBid(1, {1: F(-1)})
    with pytest.raises(GameError):
        AdditiveOnlineBid(1, 1, 3, 2, ())
    with pytest.raises(GameError):
        AdditiveOnlineBid(1, 1, 1, 2, (F(1),))  # wrong vector length
    with pytest.raises(GameError):
        SubstitutableOfflineBid(1, frozenset(), F(5))
    with pytest.raises(GameError):
        SubstitutableOfflineBid(1, frozenset({1}), F(0))
    with pytest.raises(GameError):
        SubstitutableOnlineBid(1, frozenset(), 1, 1, (F(1),))
    with pytest.raises(GameError):
        SubstitutableOnlineBid(1, frozenset({1}), 3, 2, ())
    with pytest.raises(GameError):
        SubstitutableOnlineBid(1, frozenset({1}), 1, 2, (F(1),))  # wrong vector length
    with pytest.raises(GameError):
        SubstitutableOnlineBid(1, frozenset({1}), 1, 1, (F(-1),))
    with pytest.raises(GameError):  # one additive offline bid per user
        AdditiveOfflineGame((Optimization(1, F(1)),), (AdditiveOfflineBid(1, {1: F(1)}), AdditiveOfflineBid(1, {})))


def test_online_bid_residuals():
    bid = AdditiveOnlineBid(1, 1, 2, 4, (F(10), F(20), F(30)))
    assert residual_from(bid, 1) == F(60)
    assert residual_from(bid, 2) == F(60)
    assert residual_from(bid, 3) == F(50)
    assert residual_from(bid, 4) == F(30)
    assert residual_from(bid, 5) == 0
    assert bid.value_at(1) == 0 and bid.value_at(3) == F(20)
    subst = SubstitutableOnlineBid(1, [1, 2], 2, 4, [F(10), F(20), F(30)])
    assert subst.per_slot == bid.per_slot and subst.substitutes == frozenset({1, 2})
    assert [residual_from(subst, t) for t in range(1, 6)] == [residual_from(bid, t) for t in range(1, 6)]
    assert [subst.value_at(t) for t in range(1, 6)] == [bid.value_at(t) for t in range(1, 6)]


def test_revision_rules():
    old = AdditiveOnlineBid(1, 1, 1, 3, (F(10), F(10), F(10)))
    revised = AdditiveOnlineBid(1, 1, 1, 3, (F(10), F(20), F(10)))
    assert validate_revision(old, revised, now=2) is None
    assert validate_revision(old, old, now=2) is None  # identity revision

    down = AdditiveOnlineBid(1, 1, 1, 3, (F(10), F(5), F(10)))
    v = validate_revision(old, down, now=2)
    assert v is not None and v.reason == "downward" and v.slot == 2

    retro = AdditiveOnlineBid(1, 1, 1, 3, (F(99), F(10), F(10)))
    v = validate_revision(old, retro, now=2)
    assert v is not None and v.reason == "retroactive" and v.slot == 1

    shrunk = AdditiveOnlineBid(1, 1, 1, 2, (F(10), F(10)))
    assert validate_revision(old, shrunk, now=2).reason == "shrunk_end"

    extended = AdditiveOnlineBid(1, 1, 1, 4, (F(10), F(10), F(10), F(7)))
    assert validate_revision(old, extended, now=2) is None


def test_payment_ledger_totals():
    ledger = PaymentLedger({(1, 1): F(30), (1, 3): F(5), (2, 1): F(30)})
    assert ledger.total_for(1) == F(35)
    assert ledger.total_for_opt(1) == F(60)
    assert grand_total(ledger) == F(65)


def test_schedule_cumulative_identity():
    schedule = ServiceSchedule(
        {(1, 1): frozenset({1}), (1, 2): frozenset({2, 3}), (2, 2): frozenset({1})}
    )
    assert schedule.cumulative_at(1, 1) == {1}
    assert schedule.cumulative_at(1, 2) == {1, 2, 3}
    assert schedule.cumulative_at(2, 1) == frozenset()
    assert schedule_opts(schedule) == {1, 2}


def package_definitions():
    """Every function and class defined in an ``optshare`` module, with the
    methods, properties, class and static methods of each class written in
    it (not those a class factory such as ``NamedTuple`` generates)."""
    for info in pkgutil.iter_modules(optshare.__path__):
        module = importlib.import_module(f"optshare.{info.name}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) or obj.__module__ != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            for key, member in vars(obj).items() if inspect.isclass(obj) else ():
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                    yield f"{module.__name__}.{name}.{key}", member


def test_every_annotation_in_the_package_resolves():
    definitions = dict(package_definitions())
    assert "optshare.analysis.efficient_outcome" in definitions
    assert "optshare.scaled.ScaledGame.values" in definitions
    for name, obj in definitions.items():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            raise AssertionError(f"{name}: {exc}") from None
