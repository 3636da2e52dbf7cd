"""Exact monetary arithmetic.

All mechanism math runs on exact rationals so that cost recovery and
share-threshold comparisons are decidable (equal shares like 100/3 never
terminate in decimal).  ``Money`` is :class:`fractions.Fraction`; the helpers
here handle parsing from decimal strings, fixed-precision rendering for CSV
output, and the distinguished "infinite" bid used to pin already-serviced
users in the online mechanisms.
"""

from __future__ import annotations

import math
from fractions import Fraction

Money = Fraction

ZERO = Fraction(0)

# Distinguished top bid: compares greater than every finite Money but never
# enters arithmetic (pinned users are counted, not summed).
INFINITE_BID = math.inf

Bid = Money | float  # a finite Fraction or INFINITE_BID


def is_infinite(value) -> bool:
    return isinstance(value, float) and value == INFINITE_BID  # no Fraction equals it, and comparing one is slow


# Bounds on money text, checked before any number is built (an exponent adds digits the text does not show).
MAX_MONEY_CHARS = 400
MAX_MONEY_EXPONENT = 100


def parse_money(text: str) -> Money:
    """Parse a decimal string ("2.51", "1e-6") or ratio ("251/100") exactly,
    of at most MAX_MONEY_CHARS characters and a decimal exponent of at most
    MAX_MONEY_EXPONENT in magnitude."""
    try:
        text = str(text).strip()
        _, e, exponent = text.lower().partition("e")
        if len(text) <= MAX_MONEY_CHARS and not (e and abs(int(exponent)) > MAX_MONEY_EXPONENT):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a money value: {text!r}") from exc
    raise ValueError(f"money value over {MAX_MONEY_CHARS} characters or with an exponent beyond ±{MAX_MONEY_EXPONENT}")


def render_exact(value: Money) -> str:
    """Lossless numerator/denominator form used by detail/replay files."""
    return f"{value.numerator}/{value.denominator}"


def render_decimal(value: Money, digits: int = 9) -> str:
    """Render with a fixed number of fractional digits, round-half-even."""
    return render_ratio(value.numerator, value.denominator, digits)


def render_ratio(num: int, den: int, digits: int = 9) -> str:
    """:func:`render_decimal` of ``num / den``, for integers with ``den > 0``."""
    scale = 10**digits
    q, r = divmod(abs(num) * scale, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    sign = "-" if num < 0 else ""
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def render_ratio_sqrt(num: int, den: int, digits: int = 9) -> str:
    """``sqrt(num / den)`` rendered like :func:`render_ratio` (used for
    standard deviations), for integers with ``den > 0``.  The square root of
    a rational is generally irrational; this computes the correctly rounded
    (half-even) decimal without going through floats.  With ``N = num * 10**(2 * digits)``, ``y = isqrt(N // den)``
    is the floor of ``sqrt(N / den)``; it rounds up when ``N / den`` lies
    above ``(y + 1/2)**2``, that is ``(2y + 1)**2 * den < 4N``, and on
    equality to even."""
    if num < 0:
        raise ValueError("sqrt of negative value")
    scale = 10**digits
    n = num * scale * scale
    y = math.isqrt(n // den)
    above = 4 * n - (2 * y + 1) ** 2 * den
    if above > 0 or (above == 0 and y % 2 == 1):
        y += 1
    whole, frac = divmod(y, scale)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)
