"""The suites' random games, drawn in integer cents, against the Fraction
generators they replaced (``oracles.reference_rand_*``).

Each generator must make the same random calls in the same order, so for
every size a suite passes it, and for seeds 0-49, the drawn game (compared
by value and by repr, so a Fraction that became an int shows) and the
generator's state afterwards must both equal the reference's.
"""

import random

import pytest

from optshare import verification

import oracles

# (generator, keyword arguments): every size some suite draws at
SUITE_DRAWS = [
    ("rand_additive_offline", {}),  # cost_recovery
    ("rand_additive_offline", {"max_users": 4, "max_opts": 3}),  # truthfulness, oracle_dominance
    ("rand_additive_offline", {"max_users": 4, "max_opts": 2}),  # multi_identity
    ("rand_additive_online", {}),  # cost_recovery
    ("rand_additive_online", {"max_users": 4, "max_slots": 3}),  # truthfulness, multi_identity
    ("rand_additive_online", {"max_users": 5, "max_slots": 1}),  # degeneration
    ("rand_additive_online", {"max_users": 5, "max_slots": 4}),  # degeneration
    ("rand_subst_offline", {}),  # cost_recovery
    ("rand_subst_offline", {"max_users": 4, "max_opts": 3}),  # truthfulness, oracle_dominance
    ("rand_subst_offline", {"max_users": 5, "max_opts": 3}),  # degeneration
    ("rand_subst_online", {}),  # cost_recovery
    ("rand_subst_online", {"max_users": 4, "max_opts": 3, "max_slots": 3}),  # truthfulness
    ("rand_subst_online", {"max_users": 5, "max_opts": 3, "max_slots": 1}),  # degeneration
    ("_rand_naive_game", {}),  # truthfulness's pay-your-bid control
    ("rand_money", {}),
    ("rand_money", {"lo": 1}),
    ("rand_money", {"lo": 150, "hi": 400}),  # past the shared table
]


@pytest.mark.parametrize("name, kwargs", SUITE_DRAWS)
def test_draws_equal_the_fraction_generators(name, kwargs):
    draw = getattr(verification, name)
    reference = getattr(oracles, f"reference_{name.lstrip('_')}")
    for seed in range(50):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = draw(rng, **kwargs), reference(ref_rng, **kwargs)
        assert got == want and repr(got) == repr(want), (name, kwargs, seed)
        assert rng.getstate() == ref_rng.getstate(), (name, kwargs, seed)

