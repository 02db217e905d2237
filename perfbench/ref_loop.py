"""Fixed pure-Python work that run.py times right before each op.

The host's speed swings by tens of percent, for seconds to minutes at a
time, and a swing slows this file and the ops alike.  The time of an op over
the time of the run of this file just before it is therefore much steadier
from run to run than the op's time alone.  The work is a small copy of what
the ops spend their time on: an interpreter start, bytecode dispatch, and
bit operations on big integers used as adjacency rows.  Exits 0 when the
result has its pinned value.
"""

import sys

N = 256
ROUNDS = 100
EXPECTED = 42178000


def main() -> int:
    mask = (1 << N) - 1
    rows = [(i * 0x9E3779B97F4A7C15) ** 3 & mask for i in range(N)]
    acc = 0
    for _ in range(ROUNDS):
        for i in range(N):
            row = rows[i]
            for j in range(i + 1, N, 4):
                acc += (row & rows[j]).bit_count()
    return 0 if acc == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
