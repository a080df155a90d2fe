"""A fixed reference computation that tracks the speed of a shared host.

On a machine that shares a few cores with other tenants, the speed of the
host drifts by up to 1.6x within seconds to minutes, and a CLI command
slows with it: the same command on the same input took 3.3 s and 4.8 s.
The benchmark runs each child command in slices and times this computation
between them (see run.py, run_child); a slice's host factor is the mean of
the times just before and just after it over REFERENCE_S. A child's time
is the sum of its slices, each divided by its host factor: seconds at the
speed at which REFERENCE_S was measured. A slower program still reads
slower; a slower host reads the same.

The computation never calls prefqc, so no change to the program moves it.
Its four parts mirror what the CLI does, and each takes about a quarter of
the time on the reference host: bytecode-bound Python, JSON parsing and
writing, numpy math on an array that stays in cache, and numpy passes over
an array larger than the cache. Contention from other tenants slows these
unequally, and no one part tracked every workload; their sum tracked the
three workloads together best.
"""

import json
import time

import numpy as np

# Median time of one sample, taken between slices of CLI commands, on a
# 2-vCPU shared Intel Xeon host with Python 3.11 and numpy 2.4. Only ratios
# to it matter: it sets the scale of the reported seconds.
REFERENCE_S = 0.039


class HostSpeed:
    def __init__(self):
        self._lines = [
            json.dumps({"user_id": f"u{i % 300:03d}", "item_id": f"i{i % 2000:04d}",
                        "label": i % 2})
            for i in range(1400)
        ]
        self._grid = np.linspace(0.01, 0.99, 50_000)
        self._big = np.ones(2_000_000)  # 16 MB
        self.sample()  # warm up: first-touch page faults and caches

    def sample(self) -> float:
        """Time one pass of the reference computation, in seconds."""
        start = time.perf_counter()
        acc = 0
        for j in range(100_000):
            acc += j * j % 7
        records = [json.loads(line) for line in self._lines]
        text = "".join(json.dumps(r) + "\n" for r in records)
        for _ in range(45):
            acc += float((np.log(self._grid) * np.exp(-self._grid)).sum())
        for _ in range(2):
            acc += float((self._big * 1.0001).sum())
        elapsed = time.perf_counter() - start
        if not text or acc != acc:
            raise RuntimeError("reference computation produced no result")
        return elapsed
