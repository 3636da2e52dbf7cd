"""Cost-sharing mechanisms and simulators for pricing shared optimizations."""

from .additive_online import OnlineTrace, add_on, new_session, step_session
from .analysis import (
    DeviationReport,
    MECHANISMS,
    Metrics,
    ProbeReport,
    Settlement,
    deviation_search,
    efficient_outcome,
    multi_identity_probe,
    naive_pay_your_bid,
    score,
    settle,
)
from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineMultiGame,
    GameError,
    OnlineAdditiveGame,
    Optimization,
    Outcome,
    PaymentLedger,
    ServiceSchedule,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
    validate_revision,
    value_of_outcome,
    cost_of_outcome,
)
from .money import INFINITE_BID, Money, parse_money, render_decimal, render_exact
from .regret import RegretTrace, optimal_posted_price, regret_run
from .scenarios import ScenarioSpec, generate
from .shapley import ShapleyResult, add_off, shapley
from .substitutable import SubstOffResult, SubstOnlineTrace, subst_off, subst_on

__all__ = [name for name in dir() if not name.startswith("_")]
