"""JSON round-tripping for games and results (versioned, exact money).

Money is written as an exact decimal string when the value terminates
(denominator of the form 2^a * 5^b) and as "numerator/denominator" otherwise;
both forms parse back exactly.

A loaded game is bounded by what it costs to play and print, not only by
its text: at most :data:`MAX_BIDS` bids, and a common scale (the lcm of its
cost and value denominators) of at most :data:`MAX_SCALE_DIGITS` digits.
Every exact amount ``replay`` prints is over a divisor of that scale times
the lcm of some sharer counts, each at most the bid count (under 440 more
digits), so it stays far inside Python's 4300-digit limit on printing an
integer.
"""

from __future__ import annotations

import json
import math

from .core import (
    AdditiveOfflineBid,
    AdditiveOfflineGame,
    AdditiveOnlineBid,
    AdditiveOnlineGame,
    GameError,
    Optimization,
    SlotHorizon,
    SubstOfflineGame,
    SubstOnlineGame,
    SubstitutableOfflineBid,
    SubstitutableOnlineBid,
)
from .money import Money, parse_money
from .scenarios import MAX_SIZES

SCHEMA = 1

MAX_BIDS = 1_000
MAX_SCALE_DIGITS = 1_000

# Each game file kind: the game type it loads as, and the keys its bids may hold.
GAME_KINDS = {
    "additive_offline": (AdditiveOfflineGame, ("user", "values")),
    "additive_online": (AdditiveOnlineGame, ("user", "opt", "start", "end", "per_slot")),
    "substitutable_offline": (SubstOfflineGame, ("user", "substitutes", "value")),
    "substitutable_online": (SubstOnlineGame, ("user", "substitutes", "start", "end", "per_slot")),
}
KINDS = tuple(GAME_KINDS)


def money_str(value: Money) -> str:
    den, two, five = value.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(two, five)
    scaled = value * 10**digits  # exact integer for terminating decimals
    text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def game_kind(game) -> str:
    for kind, (game_type, _) in GAME_KINDS.items():
        if isinstance(game, game_type):
            return kind
    raise TypeError(f"unknown game type {type(game).__name__}")


def game_to_dict(game) -> dict:
    horizon = getattr(game, "horizon", None)  # offline games have none: one slot
    data = {
        "schema": SCHEMA,
        "kind": game_kind(game),
        "catalog": [{"id": o.id, "cost": money_str(o.cost)} for o in game.catalog],
        "slots": horizon.z if horizon else 1,
        "bids": [_bid_to_dict(b) for b in game.bids],
    }
    return data


def _bid_to_dict(bid) -> dict:
    if isinstance(bid, AdditiveOfflineBid):
        return {"user": bid.user, "values": {str(j): money_str(v) for j, v in sorted(bid.values.items())}}
    if isinstance(bid, AdditiveOnlineBid):
        return {
            "user": bid.user,
            "opt": bid.opt,
            "start": bid.start,
            "end": bid.end,
            "per_slot": [money_str(v) for v in bid.per_slot],
        }
    if isinstance(bid, SubstitutableOfflineBid):
        return {"user": bid.user, "substitutes": sorted(bid.substitutes), "value": money_str(bid.value)}
    if isinstance(bid, SubstitutableOnlineBid):
        return {
            "user": bid.user,
            "substitutes": sorted(bid.substitutes),
            "start": bid.start,
            "end": bid.end,
            "per_slot": [money_str(v) for v in bid.per_slot],
        }
    raise TypeError(f"unknown bid type {type(bid).__name__}")


def game_from_dict(data: dict):
    """Build a game from its JSON form.  Every malformed field raises a
    :class:`GameError` that names it by path (``bids[0].user``), as does
    every key the game, a catalog entry or a bid of its kind may not hold."""
    data = _object(data, "", ("schema", "kind", "catalog", "slots", "bids"))
    schema = data.get("schema")
    if type(schema) is not int or schema != SCHEMA:  # not True or 1.0, which equal 1
        raise GameError(f"schema: expected the integer {SCHEMA}, got {schema!r}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise GameError(f"kind: expected one of {KINDS}, got {kind!r}")
    catalog = []
    for i, o in enumerate(_field(data, "catalog", "", _list)):
        o = _object(o, f"catalog[{i}]", ("id", "cost"))
        catalog.append(Optimization(_field(o, "id", f"catalog[{i}]", _int), _field(o, "cost", f"catalog[{i}]", _money)))
    catalog = tuple(catalog)
    slots = _int(data.get("slots", 1), "slots")
    if slots > MAX_SIZES["slots"]:
        raise GameError(f"slots: must be <= {MAX_SIZES['slots']} (got {slots})")
    raw_bids = _field(data, "bids", "", _list)
    if len(raw_bids) > MAX_BIDS:
        raise GameError(f"bids: must hold at most {MAX_BIDS} bids (got {len(raw_bids)})")
    bids = [(_object(b, f"bids[{i}]", GAME_KINDS[kind][1]), f"bids[{i}]") for i, b in enumerate(raw_bids)]
    game = _build(kind, catalog, slots, bids)
    _check_scale(game)
    return game


def _check_scale(game):
    """Raise a :class:`GameError` naming the first money field at which the
    lcm of the game's cost and value denominators passes
    :data:`MAX_SCALE_DIGITS` digits."""
    bound, scale = 10**MAX_SCALE_DIGITS, 1
    for path, value in _money_fields(game):
        scale = math.lcm(scale, value.denominator)
        if scale >= bound:
            raise GameError(
                f"{path}: the game's common scale (the lcm of its cost and value denominators) "
                f"passes {MAX_SCALE_DIGITS} digits"
            )


def _money_fields(game):
    """``(path, amount)`` of every money field of ``game``, in file order."""
    for i, o in enumerate(game.catalog):
        yield f"catalog[{i}].cost", o.cost
    for i, b in enumerate(game.bids):
        if isinstance(b, AdditiveOfflineBid):
            yield from ((f"bids[{i}].values.{j}", v) for j, v in b.values.items())
        elif isinstance(b, SubstitutableOfflineBid):
            yield f"bids[{i}].value", b.value
        else:
            yield from ((f"bids[{i}].per_slot[{k}]", v) for k, v in enumerate(b.per_slot))


def _build(kind: str, catalog: tuple, slots: int, bids: list):
    """The game of ``kind`` from its parsed catalog and slot count and its
    bids as ``(object, path)``."""
    if kind == "additive_offline":
        return AdditiveOfflineGame(
            catalog,
            tuple(AdditiveOfflineBid(_field(b, "user", p, _int), _offline_values(b, p)) for b, p in bids),
        )
    if kind == "additive_online":
        return AdditiveOnlineGame(
            catalog,
            SlotHorizon(slots),
            tuple(AdditiveOnlineBid(_field(b, "user", p, _int), _opt(b, p, catalog), *_window(b, p)) for b, p in bids),
        )
    if kind == "substitutable_offline":
        return SubstOfflineGame(
            catalog,
            tuple(
                SubstitutableOfflineBid(
                    _field(b, "user", p, _int), _field(b, "substitutes", p, _substitutes), _field(b, "value", p, _money)
                )
                for b, p in bids
            ),
        )
    return SubstOnlineGame(
        catalog,
        SlotHorizon(slots),
        tuple(
            SubstitutableOnlineBid(_field(b, "user", p, _int), _field(b, "substitutes", p, _substitutes), *_window(b, p))
            for b, p in bids
        ),
    )


def _field(obj: dict, key: str, path: str, parse):
    """``parse(obj[key], name)``, where name is the field's path."""
    name = f"{path}.{key}" if path else key
    if key not in obj:
        raise GameError(f"{name}: missing")
    return parse(obj[key], name)


def _object(value, path: str, keys=None) -> dict:
    """``value``, a JSON object holding no key outside ``keys`` (if given);
    ``path`` names it, "" the game itself."""
    if not isinstance(value, dict):
        raise GameError(f"{path or 'game'}: expected a JSON object")
    for key in value:
        if keys is not None and key not in keys:
            raise GameError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise GameError(f"{path}: expected a list")
    return value


def _int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise GameError(f"{path}: expected an integer, got {value!r}")
    return value


def _money(value, path: str) -> Money:
    try:
        return parse_money(value)
    except ValueError as exc:
        raise GameError(f"{path}: {exc}") from None


def _substitutes(value, path: str) -> frozenset:
    return frozenset(_int(j, f"{path}[{k}]") for k, j in enumerate(_list(value, path)))


def _opt(bid: dict, path: str, catalog: tuple) -> int:
    """An additive online bid's optimization, which it may leave out only
    when the catalog holds exactly one."""
    if "opt" in bid or len(catalog) != 1:
        return _field(bid, "opt", path, _int)
    return catalog[0].id


def _window(bid: dict, path: str) -> tuple:
    """(start, end, per_slot) of an online bid."""
    per_slot = _field(bid, "per_slot", path, _list)
    return (
        _field(bid, "start", path, _int),
        _field(bid, "end", path, _int),
        tuple(_money(v, f"{path}.per_slot[{k}]") for k, v in enumerate(per_slot)),
    )


def _offline_values(bid: dict, path: str) -> dict:
    out = {}
    for j, v in _object(bid.get("values", {}), f"{path}.values").items():
        try:
            opt = int(j)
        except ValueError:
            raise GameError(f"{path}.values: key {j!r} is not an optimization id") from None
        out[opt] = _money(v, f"{path}.values.{j}")
    return out


def dump_game(game, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_game(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # as in harness.load_config
            raise GameError(f"game: invalid JSON ({exc})") from exc
    return game_from_dict(data)


def game_json(game) -> str:
    return json.dumps(game_to_dict(game), sort_keys=True)
