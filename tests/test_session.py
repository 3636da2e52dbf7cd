"""Session feeds: bids declared slot by slot, with revisions, through
``step_session``.

A feed is legal by construction: new arrivals (some declared before their
window starts), upward revisions of bids still in play, window extensions
and skipped slots.  The golden digest pins every step's serviced set,
departures and cumulative set, and each feed's final trace; it was recorded
from the session's own slot loop, before the session ran on the ``serve``
kernel.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from optshare.additive_online import new_session, step_session
from optshare.core import AdditiveOnlineBid, Optimization, SlotHorizon

F = Fraction
FEEDS = 3000

GOLDEN_SHA256 = "d943e366bbc3f726b3a3be66b78e3fe0e00c8e8a2ae8827dcbf6504d43a791c7"


def money(rng):
    return F(rng.randint(0, 300), rng.choice((1, 3, 100)))


def feed(rng):
    """(optimization, horizon, [(slot, bids fed at that slot)])."""
    z = rng.randint(1, 5)
    opt = Optimization(1, F(rng.randint(1, 500), rng.choice((1, 7, 100))))
    slots = sorted(rng.sample(range(1, z + 1), rng.randint(1, z)))
    declared = {}
    steps = []
    for slot in slots:
        bids = []
        for old in declared.values():
            if old.end >= slot and rng.random() < 0.4:
                end = rng.randint(old.end, z)
                per_slot = tuple(
                    old.value_at(t) + (money(rng) if t >= slot and rng.random() < 0.5 else 0)
                    for t in range(old.start, end + 1)
                )
                bids.append(replace(old, end=end, per_slot=per_slot))
        for user in range(len(declared) + 1, len(declared) + rng.randint(0, 3) + 1):
            start = rng.randint(slot, z)
            end = rng.randint(start, z)
            bids.append(AdditiveOnlineBid(user, 1, start, end, tuple(money(rng) for _ in range(end - start + 1))))
        declared.update((b.user, b) for b in bids)
        steps.append((slot, bids))
    return opt, SlotHorizon(z), steps


def session_lines():
    rng = random.Random("session-feeds")
    lines = []
    for n in range(FEEDS):
        opt, horizon, steps = feed(rng)
        state = new_session(opt, horizon)
        for slot, bids in steps:
            serviced, departures, state = step_session(state, slot, bids)
            lines.append(f"{n} {slot} {sorted(serviced)} {sorted(departures.items())!r} {sorted(state.cumulative)}")
        trace = state.trace()
        lines.append(f"{n} payments {list(trace.payments.items())!r}")
        lines.append(f"{n} served {[(k, sorted(v)) for k, v in sorted(trace.schedule.served.items())]}")
        shares = sorted((t, share) for (_, t), share in trace.share_history.items())  # by slot, as recorded
        lines.append(f"{n} shares {shares!r}")
    return lines


def test_session_golden_digest():
    digest = hashlib.sha256("\n".join(session_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_session_feed_properties(rng):
    opt, horizon, steps = feed(rng)
    if steps[-1][0] < horizon.z:
        steps.append((horizon.z, []))  # play out the horizon so everyone departs
    state = new_session(opt, horizon)
    prev = frozenset()
    for slot, bids in steps:
        serviced, departures, state = step_session(state, slot, bids)
        cumulative = state.cumulative
        assert prev <= cumulative  # the cumulative set never shrinks
        if prev:
            assert opt.cost / len(cumulative) <= opt.cost / len(prev)  # the share never rises
        assert serviced <= cumulative
        for user, paid in departures.items():
            assert paid == (opt.cost / len(cumulative) if user in cumulative else 0)
        prev = cumulative
    paid = sum(state.trace().payments.values(), F(0))
    if state.cumulative:
        assert paid >= opt.cost  # cost is recovered
    else:
        assert paid == 0
