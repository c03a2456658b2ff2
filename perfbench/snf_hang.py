"""Reproducer for a Smith normal form hang the benchmark ran into.

    python3 perfbench/snf_hang.py

The matrix is the weight-kernel presentation of one drawing of
T(2,2) # T(2,21) (23 arcs, 23 crossings): a row 2*over - under - under' per
crossing, then a unit row on arc 0.  It is what `weight_kernel` hands to
`imqlink.abelian.smith_normal_form` when the diagram's crossing and arc lists
are shuffled.  With the rows in reverse order the form takes milliseconds;
in the order below it does not finish.  Prints both timings; exits 1 while
the hang is present, 0 once both orders finish within TIMEOUT_S.  Traced
benchmark runs call `check` and record its answer in their `detail`.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

# (over, under, under') arc ids per crossing, in the order that hangs
CROSSINGS = [
    (20, 5, 18), (1, 17, 21), (5, 0, 20), (7, 12, 13), (3, 14, 18),
    (0, 5, 22), (8, 10, 16), (9, 11, 15), (2, 15, 19), (6, 17, 22),
    (10, 8, 11), (16, 4, 8), (19, 2, 13), (15, 2, 9), (22, 0, 1),
    (21, 1, 12), (12, 7, 21), (4, 14, 16), (13, 7, 19), (14, 3, 4),
    (17, 6, 6), (18, 3, 20), (11, 9, 10),
]
N_ARCS = 23
TIMEOUT_S = 3  # the reversed order takes milliseconds


def matrix() -> list[list[int]]:
    rows = []
    for over, u, v in CROSSINGS:
        row = [0] * N_ARCS
        row[over] += 2
        row[u] -= 1
        row[v] -= 1
        rows.append(row)
    rows.append([1] + [0] * (N_ARCS - 1))
    return rows


class _OutOfTime(Exception):
    pass


def _alarm(signum, frame):
    raise _OutOfTime


def timed_snf(smith_normal_form, rows) -> float | None:
    """Seconds the form took, or None when it ran out of time."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        smith_normal_form(rows, N_ARCS)
        return time.perf_counter() - t0
    except _OutOfTime:
        return None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check(smith_normal_form) -> dict[str, float | None]:
    """Seconds for each row order, None where the form did not finish."""
    rows = matrix()
    return {
        "rows reversed": timed_snf(smith_normal_form, rows[::-1]),
        "rows as listed": timed_snf(smith_normal_form, rows),
    }


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from imqlink.abelian import smith_normal_form

    times = check(smith_normal_form)
    for label, t in times.items():
        print(f"{label:15s} " + (f"{t:.3f} s" if t is not None else f"> {TIMEOUT_S} s"))
    return 0 if None not in times.values() else 1


if __name__ == "__main__":
    sys.exit(main())
