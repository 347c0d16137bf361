"""Check that the benchmark's verdict checks catch wrong answers.

    python3 perfbench/selfcheck.py

For every workload (seed 0) one pass runs with spr's outputs as they are,
and must fail no job; a second pass inverts every verdict before it is
checked, and must fail every job.  Exits 1 when either does not hold.
"""

from __future__ import annotations

import sys

from run import SRC, WORKLOADS, run_pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    ok = True
    for name in WORKLOADS:
        w = workloads.build(name, 0)
        env = workloads.setup(w)
        plain = run_pass(w, env)
        flipped = run_pass(w, env, flip=True)
        good = plain.failed == 0 and flipped.failed == len(w.jobs)
        ok = ok and good
        print(f"{name}: {plain.failed} of {len(w.jobs)} jobs fail as run, "
              f"{flipped.failed} with every verdict flipped: {'ok' if good else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
