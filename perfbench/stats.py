"""Statistics shared by the runner and the workloads.

The machine the benchmark was built on (2 vCPUs shared with other tenants)
is slowed, for stretches of seconds to minutes, by work it cannot see: the
same code then runs 1.3 to 1.8 times slower, with short quiet gaps between
the slow spells.  A median over one run moves with the share of the run the
slow spells cover, and even a low percentile of 2 s passes moves with how
many quiet gaps the run happens to get.  The fastest of many short timings
of the same call moved least from run to run: it needs one quiet gap as
long as the call.  So the benchmark times each call many times and reads
each call at its minimum.
"""

import math


def percentile(values, q):
    """Nearest-rank percentile; with fewer than 100 values p99 is the max."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def quiet(values):
    """The time of a call on the quiet machine: the fastest reading."""
    return min(values)
