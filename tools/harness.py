"""What the scripts of tools/ share: invsl imported from a named checkout, the
`[--repeat N] [CHECKOUT]` arguments of the timing scripts, and their timer.

Run a script as `python3 tools/<name>.py`, so that this directory is first on
sys.path and `import harness` finds this module.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path


def import_checkout(checkout: Path, prog: str) -> None:
    """Put checkout/src first on sys.path and import invsl; SystemExit when
    it is imported from anywhere else."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import invsl
    if not Path(invsl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"{prog}: invsl was imported from {invsl.__file__}, not {src}")


def timing_args(prog: str, argv=None):
    """(repeat, checkout) of `[--repeat N] [CHECKOUT]`, with invsl imported
    from CHECKOUT (default: the checkout this module lives in)."""
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--repeat", type=int, default=5, metavar="N")
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    import_checkout(args.checkout, prog)
    return args.repeat, args.checkout


def best_time(call, repeat):
    """Best over `repeat` runs of the mean seconds per call, each run taking
    about 20 ms."""
    call()
    start = time.perf_counter()
    call()
    number = max(1, int(0.02 / max(time.perf_counter() - start, 1e-7)))
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best
