"""Conventional association schemes used for comparison.

Neither scheme looks at rate requirements: both hand BS chains to
whichever UE chains have the best links, so the association flags z
mark "has a link", not "requirement met".  Audit their output with the
structural constraint subset.
"""

from __future__ import annotations

import numpy as np

from .instance import AssociationInstance, AssociationSolution, solution_from_x
from .step2flow import full_residual, solve_step2


def max_sum_rate(inst: AssociationInstance) -> AssociationSolution:
    """Jointly assign every BS chain so the network sum rate is maximal.

    The full residual keeps every chain in instance order and every UE,
    since each UE owns at least one chain, so solve_step2's solution is
    already the global one: x has the instance's shape, and z and
    per_ue_rate list every UE in index order, as solution_from_x would.
    """
    return solve_step2(full_residual(inst))


def max_snr(inst: AssociationInstance) -> AssociationSolution:
    """Sequential per-BS greedy: each chain takes the best free UE chain.

    BS chains are visited in index order, so BSs in ascending order;
    capacity is the monotone proxy for SNR at fixed bandwidth.  Pairings
    of zero capacity are skipped; ties go to the lowest UE chain index.
    """
    x = np.zeros(inst.c.shape, dtype=int)
    free = np.ones(inst.c.shape[0], dtype=bool)
    for j in range(inst.c.shape[1]):
        gains = np.where(free, inst.c[:, j], 0.0)
        if gains.max(initial=0.0) <= 0.0:
            continue
        i = int(np.argmax(gains))  # argmax returns the lowest index on ties
        x[i, j] = 1
        free[i] = False
    return solution_from_x(inst, x)
