"""A fixed pure-Python program that measures how fast the host runs now.

It does what the program under test mostly does, exact integer elimination
with content stripping, on a fixed matrix.  run.py starts it in a fresh
process before every operation and scales the run's times by its median.
"""

import random
from math import gcd


def main() -> None:
    rng = random.Random(1401)
    n = 54
    rows = [[rng.randint(-9, 9) for _ in range(n + 6)] for _ in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        p, pv = rows[col], rows[col][col]
        for i in range(col + 1, n):
            rv = rows[i][col]
            if rv:
                r = [a * pv - b * rv for a, b in zip(rows[i], p)]
                g = 0
                for v in r:
                    g = gcd(g, v)
                rows[i] = [v // g for v in r] if g > 1 else r


if __name__ == "__main__":
    main()
