"""Calibration kernel: a fixed job whose run time tracks the host's speed.

run.py starts it in a fresh interpreter between measurements and rescales
every time it reports to the speed at which this kernel takes
CALIBRATION_REF_S.  The host this benchmark was built on runs in slow and
fast phases that last minutes and differ by up to 1.5x; a pass time
divided by the kernel time around it varies far less than either.

The job mirrors the package's cost mix without using the package, so a
change to the package never moves it: interpreter start-up with numpy
import, a pure-Python heap search like the flow solver's Dijkstra, and
numpy rank-one updates like the simplex's pivots.
"""

import heapq
import random

import numpy as np

rng = random.Random(1)
n = 300
adj = [[(rng.randrange(n), rng.random()) for _ in range(8)] for _ in range(n)]
for src in range(40):
    dist = [float("inf")] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))

a = np.random.default_rng(0).random((150, 1500))
for k in range(60):
    a -= np.outer(a[:, k] * 1e-3, a[k])
