"""``verification.randint`` against ``random.Random.randint``.

The suites take each ``randint`` straight from ``getrandbits`` with
CPython's rejection loop.  For every width here and many seeds, the helper
must give the numbers ``randint`` gives and leave the generator in the state
``randint`` leaves.  The module needs only the standard library, so an
interpreter without pytest runs it as a script:
``PYTHONPATH=src python tests/test_suite_randint.py``.
"""

import random

from optshare.verification import randint

# 1, 2 and 3, each power of two with the width one past it (past 32 bits
# too, where a draw takes several words), and the cents range 0-200
WIDTHS = sorted({1, 2, 3, 201, *(2**k for k in range(1, 35)), *(2**k + 1 for k in range(1, 35))})


def test_randint_draws_as_random_randint():
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        for width in WIDTHS:
            for a in (0, 1, -width, 10**6):
                b = a + width - 1
                got = [randint(rng, a, b) for _ in range(3)]
                assert got == [ref.randint(a, b) for _ in range(3)], (seed, width, a)
            assert rng.getstate() == ref.getstate(), (seed, width)


if __name__ == "__main__":
    test_randint_draws_as_random_randint()
    print("randint draws as random.Random.randint")
