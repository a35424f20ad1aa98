"""Fixed reference job that gauges how fast the host runs at the moment.

It mixes what the benchmarked commands spend their time on: interpreter
start, the NumPy import, small NumPy calls on a 10k vector and a plain
Python loop. run.py times it before each repeat and rescales that
repeat's times by it. Its work must never change: every rescaled figure
is relative to it.
"""

import numpy as np

rng = np.random.default_rng(0)
totals = np.zeros(10_000)
for _ in range(1000):
    scores = totals + rng.uniform(0.0, 50.0, totals.size)
    np.partition(scores, 9800)
    ids, counts = np.unique(rng.integers(0, totals.size, 200), return_counts=True)
    totals[ids] += counts
acc = 0
for i in range(300_000):
    acc += i
