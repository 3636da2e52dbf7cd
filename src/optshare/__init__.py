"""Cost-sharing mechanisms and simulators for pricing shared optimizations."""

from .additive_online import add_on, new_session, step_session
from .analysis import (
    DeviationReport,
    MECHANISMS,
    Metrics,
    ProbeReport,
    deviation_search,
    efficient_outcome,
    multi_identity_probe,
    score,
)
from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    GameError,
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
)
from .money import INFINITE_BID, Money, parse_money, render_decimal, render_exact
from .regret import optimal_posted_price, regret_run
from .scaled import Settlement
from .scenarios import ScenarioSpec, generate
from .shapley import ShapleyResult, add_off, shapley
from .substitutable import subst_off, subst_on

__all__ = [name for name in dir() if not name.startswith("_")]
