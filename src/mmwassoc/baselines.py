"""Conventional association schemes used for comparison.

Neither scheme looks at rate requirements: both hand BS chains to
whichever UE chains have the best links, so the association flags z
mark "has a link", not "requirement met".  Audit their output with the
structural constraint subset.
"""

from __future__ import annotations

import numpy as np

from .instance import AssociationInstance, AssociationSolution, solution_from_x
from .step2flow import solve_assignment

# Unused here, but the benchmark's sweep tracing wraps these two bindings.
from .step2flow import full_residual, solve_step2  # noqa: F401


def max_sum_rate(inst: AssociationInstance) -> AssociationSolution:
    """Jointly assign every BS chain so the network sum rate is maximal.

    This is a maximum-weight matching of UE chains to BS chains on the
    whole capacity matrix, which solve_assignment finds directly: x has
    the instance's shape and holds a link only where c > 0.  It is what
    solve_step2 returns for full_residual(inst), byte for byte, without
    the step-2 network in between.
    """
    return solution_from_x(inst, solve_assignment(inst.c))


def max_snr(inst: AssociationInstance) -> AssociationSolution:
    """Sequential per-BS greedy: each chain takes the best free UE chain.

    BS chains are visited in index order, so BSs in ascending order;
    capacity is the monotone proxy for SNR at fixed bandwidth.  Each BS
    chain's UE chains are sorted once, by capacity from high to low; the
    sort is stable, so ties go to the lowest UE chain index.  A BS chain
    takes the first UE chain of its order that no earlier BS chain took,
    unless that capacity is zero, and takes none when every UE chain is
    taken.
    """
    x = np.zeros(inst.c.shape, dtype=int)
    free = [True] * inst.c.shape[0]
    orders = (-inst.c).argsort(axis=0, kind="stable").T.tolist()
    for j, (order, caps) in enumerate(zip(orders, inst.c.T.tolist())):
        for i in order:
            if free[i]:
                if caps[i] > 0.0:
                    x[i, j] = 1
                    free[i] = False
                break
    return solution_from_x(inst, x)
