"""Association instances, solutions, constraint auditing, objective, and metrics.

An instance holds the chain-level capacity matrix, per-UE rate
requirements and the chain count of every UE and BS.  Chain ownership is
a rule, not data: UE chain i belongs to UE i // n_ue_rf and BS chain j to
BS j // n_bs_rf, the layout `model` samples.  A solution is a binary
assignment ``x`` over (UE RF chain, BS RF chain) pairs plus per-UE
association flags ``z``.

This module is the one place that says what a solution holds and what
it is worth: complete_solution builds every solver's solution from its
x (solution_from_x for a whole instance, step 2 for a residual block),
and link_weights holds the per-link penalty that objective_step1, the
step-1 LP and the exact search all read.

The auditor checks the named constraints of the requirement-aware
association problem:

    5b  each BS RF chain serves at most one UE RF chain
    5c  each UE RF chain uses at most one BS RF chain
    5d  each BS activates at most n_bs_rf of its chains
    5e  UE u uses at most z_u * n_ue_rf chains (no links unless flagged)
    5f  aggregate rate of UE u is at least z_u * r_u

Schemes that associate UEs without promising their rate (sum-rate and
SNR-greedy allocation, and the combined two-step output) set z from the
presence of links, which satisfies 5b-5e but not necessarily 5f; audit
those with ``constraints=STRUCTURAL_CONSTRAINTS``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .tolerances import RATE_TOL_BPS

ALL_CONSTRAINTS = ("5b", "5c", "5d", "5e", "5f")
STRUCTURAL_CONSTRAINTS = ("5b", "5c", "5d", "5e")


def count(value, name: str, least: int = 1) -> int:
    """value as a plain int: the package's one rule for a count, budget or seed.

    Any integer with __index__ passes (numpy's too), except a bool, which
    would pass as 0 or 1 and be written back as false or true.  Anything
    else raises TypeError, and an integer below least ValueError.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if (number := operator.index(value)) < least:
        raise ValueError(f"{name} must be >= {least}, got {number}")
    return number


def real(value, name: str, low: float = -math.inf, strict: bool = True) -> float:
    """value as a plain float: the package's one rule for a real number.

    Any numbers.Real passes (numpy's too), except a bool, which would pass
    as 0 or 1 and be written back as True or False.  Anything else raises
    TypeError, and a value that is not finite, or not above low (below low
    when strict is false), ValueError; an integer beyond the float range
    is not finite.
    """
    # A plain float skips the numbers.Real test, which costs a few microseconds
    # per sweep cell's config; bool cannot be subclassed.
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise TypeError(f"{name} is {value!r}, not a number")
    try:
        if math.isfinite(number := float(value)) and (number > low if strict else number >= low):
            return number
    except OverflowError:  # an integer beyond the float range is not finite either
        pass
    bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low}"
    raise ValueError(f"{name} must be finite{bound}, got {value}")


@dataclass(frozen=True, eq=False)
class AssociationInstance:
    """Capacity matrix, requirements and per-device chain counts.

    UE chain i belongs to UE i // n_ue_rf and BS chain j to BS j // n_bs_rf;
    ``ue_of_chain`` and ``bs_of_chain`` are derived from that rule.
    """

    c: np.ndarray  # (n_ue * n_ue_rf, n_bs * n_bs_rf) bit/s
    rate_req: np.ndarray  # (n_ue,) bit/s
    n_ue_rf: int
    n_bs_rf: int
    ue_of_chain: np.ndarray = field(init=False)  # UE index per UE chain
    bs_of_chain: np.ndarray = field(init=False)  # BS index per BS chain

    def __post_init__(self) -> None:
        if self.c.ndim != 2:
            raise ValueError(
                f"the capacity matrix must be 2-D (UE chains x BS chains), got {self.c.ndim}-D"
            )
        for name in ("n_ue_rf", "n_bs_rf"):
            object.__setattr__(self, name, count(getattr(self, name), name))
        n_uc, n_bc = self.c.shape
        if n_uc % self.n_ue_rf or n_bc % self.n_bs_rf:
            raise ValueError("each UE must own exactly n_ue_rf chains, each BS n_bs_rf")
        object.__setattr__(self, "ue_of_chain", np.arange(n_uc) // self.n_ue_rf)
        object.__setattr__(self, "bs_of_chain", np.arange(n_bc) // self.n_bs_rf)
        if self.rate_req.shape != (self.n_ue,):
            raise ValueError("rate_req length must equal the number of UEs")
        if not (np.isfinite(self.rate_req) & (self.rate_req > 0)).all():
            raise ValueError("rate requirements must be finite and > 0")
        if not (np.isfinite(self.c) & (self.c >= 0)).all():
            raise ValueError("capacities must be finite and >= 0")
        # Finite values can still overflow what the solvers compute from
        # them: the 5f coefficients c_ij / r_u, and sums of capacities,
        # each at most the total.
        with np.errstate(over="ignore"):
            top_ratio = (self.c / self.rate_req[self.ue_of_chain][:, None]).max(initial=0.0)
            total = self.c.sum()
        if not (np.isfinite(top_ratio) and np.isfinite(total)):
            raise ValueError(
                "capacities out of range: the total capacity and every c_ij / r_u must be finite"
            )

    @property
    def n_ue(self) -> int:
        return self.c.shape[0] // self.n_ue_rf

    @property
    def n_bs(self) -> int:
        return self.c.shape[1] // self.n_bs_rf


@dataclass(frozen=True, eq=False)
class AssociationSolution:
    """Binary assignment x, association flags z, and per-UE aggregate rate."""

    x: np.ndarray  # (n_ue_chains, n_bs_chains) in {0, 1}
    z: np.ndarray  # (n_ue,) in {0, 1}
    per_ue_rate: np.ndarray  # (n_ue,) bit/s


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple  # of (constraint id, offending index)


@dataclass(frozen=True)
class SolutionMetrics:
    n_associated: int
    n_satisfied: int
    sum_rate_bps: float


def make_instance(
    c: np.ndarray, rate_req: np.ndarray, n_ue_rf: int, n_bs_rf: int
) -> AssociationInstance:
    """Instance from array-likes of capacities and requirements."""
    return AssociationInstance(
        np.asarray(c, dtype=float), np.asarray(rate_req, dtype=float), n_ue_rf, n_bs_rf
    )


def instance_from_capacity(c, rate_req, cfg) -> AssociationInstance:
    """Build an instance from a capacity matrix and a ScenarioConfig."""
    return make_instance(c, rate_req, cfg.n_ue_rf, cfg.n_bs_rf)


def _per_ue(inst: AssociationInstance, per_chain: np.ndarray) -> np.ndarray:
    """Sum a per-UE-chain quantity over the chains of each UE."""
    return np.bincount(inst.ue_of_chain, weights=per_chain, minlength=inst.n_ue)


def complete_solution(x, c, ue_of_row, n_ue: int) -> AssociationSolution:
    """Solution from a 0/1 x over the capacity rows c, row i owned by UE ue_of_row[i].

    z flags every UE of range(n_ue) with a link, and per_ue_rate sums the
    capacities of its links.
    """
    return AssociationSolution(
        x=x,
        z=(np.bincount(ue_of_row, weights=x.sum(axis=1), minlength=n_ue) > 0).astype(int),
        per_ue_rate=np.bincount(ue_of_row, weights=(x * c).sum(axis=1), minlength=n_ue),
    )


def solution_from_x(inst: AssociationInstance, x: np.ndarray) -> AssociationSolution:
    """Complete a solution of inst from x (see complete_solution)."""
    x = np.asarray(x)
    if x.shape != inst.c.shape:
        raise ValueError(f"x shape {x.shape} does not match instance {inst.c.shape}")
    return complete_solution(x.astype(int), inst.c, inst.ue_of_chain, inst.n_ue)


def empty_solution(inst: AssociationInstance) -> AssociationSolution:
    return solution_from_x(inst, np.zeros(inst.c.shape, dtype=int))


def _check_shape(inst: AssociationInstance, sol: AssociationSolution) -> None:
    """Reject a solution whose x or z does not have the instance's shape,
    which numpy would otherwise broadcast silently."""
    if sol.x.shape != inst.c.shape or sol.z.shape != (inst.n_ue,):
        raise ValueError("solution shape does not match instance")


def check_feasibility(
    inst: AssociationInstance,
    sol: AssociationSolution,
    constraints=ALL_CONSTRAINTS,
) -> FeasibilityReport:
    """Audit a candidate solution against the named constraints.

    One violation mask is built per constraint id, from x's column sums
    (5b, 5d), its row sums (5c, 5e) and the per-UE rates (5f), each sum
    taken once.  Violations carry (constraint id, offending index), in
    ALL_CONSTRAINTS order: the BS chain for 5b, UE chain for 5c, BS for
    5d, UE for 5e/5f.  `constraints` is a collection of ids from
    ALL_CONSTRAINTS; an unknown id, or a bare string (which `in` would
    match by substring), raises ValueError rather than audit less than
    asked.  So do an x or z of the wrong shape, and an entry of either
    that is not 0 or 1 (NaN included).
    """
    wanted = set(constraints)
    if isinstance(constraints, str) or not wanted <= set(ALL_CONSTRAINTS):
        raise ValueError(f"constraints must be ids from {ALL_CONSTRAINTS}, got {constraints!r}")
    _check_shape(inst, sol)
    x, z = sol.x, sol.z
    if not (((x == 0) | (x == 1)).all() and ((z == 0) | (z == 1)).all()):
        raise ValueError("x and z must be binary")

    per_bs_chain, per_ue_chain = x.sum(axis=0), x.sum(axis=1)
    masks = {
        "5b": per_bs_chain > 1,
        "5c": per_ue_chain > 1,
        "5d": np.bincount(inst.bs_of_chain, per_bs_chain, minlength=inst.n_bs) > inst.n_bs_rf,
        "5e": _per_ue(inst, per_ue_chain) > z * inst.n_ue_rf,
        "5f": _per_ue(inst, (x * inst.c).sum(axis=1)) < z * inst.rate_req - RATE_TOL_BPS,
    }
    ids = [cid for cid in ALL_CONSTRAINTS if cid in wanted]
    violations = tuple((cid, k) for cid in ids for k in masks[cid].nonzero()[0].tolist())
    return FeasibilityReport(feasible=not violations, violations=violations)


def weight_term(c_ij, r_u, n_ue_rf: int):
    """Penalty of one active link: 1 / (n_ue_rf + 1 + c_ij / r_u).

    Broadcasts over arrays of capacities and requirements.  Every penalty
    lies in (0, 1/(n_ue_rf + 1)], inside the range of chain weights that
    keeps the satisfied-UE count primary: with F1 the number of
    associated UEs and F2 the negated number of active links, lam1*F1 +
    lam2*F2 maximizes F1 with the fewest chains when
    0 < lam2/lam1 < 1/n_ue_rf.
    """
    c_ij = np.asarray(c_ij, dtype=float)
    if not (np.asarray(r_u) > 0).all():  # NaN fails too
        raise ValueError("rate requirement must be > 0")
    if not (c_ij >= 0).all():
        raise ValueError("capacity must be >= 0")
    return 1.0 / (n_ue_rf + 1.0 + c_ij / r_u)


def link_weights(inst: AssociationInstance) -> np.ndarray:
    """The weight_term of every link, shaped like inst.c."""
    return weight_term(inst.c, inst.rate_req[inst.ue_of_chain][:, None], inst.n_ue_rf)


def objective_step1(inst: AssociationInstance, sol: AssociationSolution) -> float:
    """Association score: sum(z) minus the link weight of every active link.

    Associating is always worth more than the chains it spends, and
    higher-capacity links cost less.  A solution of the wrong shape
    raises ValueError.
    """
    _check_shape(inst, sol)
    return float(sol.z.sum() - (sol.x * link_weights(inst)).sum())


def metrics(inst: AssociationInstance, sol: AssociationSolution) -> SolutionMetrics:
    """Associated/satisfied UE counts and network sum rate, all from x.

    A solution of the wrong shape raises ValueError.
    """
    _check_shape(inst, sol)
    rates = (sol.x * inst.c).sum(axis=1)
    return SolutionMetrics(
        n_associated=int((_per_ue(inst, sol.x.sum(axis=1)) > 0).sum()),
        n_satisfied=int((_per_ue(inst, rates) >= inst.rate_req - RATE_TOL_BPS).sum()),
        sum_rate_bps=float(rates.sum()),
    )


def instance_to_dict(inst: AssociationInstance) -> dict:
    """JSON-ready instance: dimensions, capacity rows, requirements, ownership."""
    return {
        "n_ue": inst.n_ue,
        "n_bs": inst.n_bs,
        "n_ue_rf": inst.n_ue_rf,
        "n_bs_rf": inst.n_bs_rf,
        "capacity_bps": inst.c.tolist(),
        "rate_req_bps": inst.rate_req.tolist(),
        "ue_of_chain": inst.ue_of_chain.tolist(),
        "bs_of_chain": inst.bs_of_chain.tolist(),
    }


def _json_numbers(data: dict, key: str) -> np.ndarray:
    """data[key], a real number or equally long lists of them, as floats.

    numpy would read a bool or a numeric string as a number, and word a
    ragged list in its own terms; here each entry passes real by name and
    index, and a ragged row is refused by its index.
    """
    value = data[key]
    if isinstance(value, list) and value and isinstance(value[0], list):
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != len(value[0]):
                raise ValueError(f"{key} row {i} is not a list as long as row 0 ({len(value[0])})")
    entries = np.array(value, dtype=object)
    for where, entry in np.ndenumerate(entries):
        entries[where] = real(entry, f"{key}{''.join(f'[{i}]' for i in where)}")
    return entries.astype(float)


def instance_from_dict(data: dict) -> AssociationInstance:
    """Inverse of instance_to_dict; the dimensions and ownership maps
    must equal those the capacity matrix and chain counts give.  n_ue and
    n_bs may be 0, since an instance without BS chains is valid; without
    UEs, capacity_bps is [] and takes one column per bs_of_chain entry,
    since counts alone could ask for any number of columns."""
    counts = {
        key: count(data[key], key, least)
        for key, least in (("n_ue", 0), ("n_bs", 0), ("n_ue_rf", 1), ("n_bs_rf", 1))
    }
    c = _json_numbers(data, "capacity_bps")
    if counts["n_ue"] == 0 and c.shape == (0,):
        c = c.reshape(0, _json_numbers(data, "bs_of_chain").size)
    inst = make_instance(
        c, _json_numbers(data, "rate_req_bps"), counts["n_ue_rf"], counts["n_bs_rf"]
    )
    for key in ("n_ue", "n_bs", "ue_of_chain", "bs_of_chain"):
        if not np.array_equal(_json_numbers(data, key), getattr(inst, key)):
            raise ValueError(f"{key} is not what the capacity matrix and chain counts give")
    return inst


def solution_to_dict(inst: AssociationInstance, sol: AssociationSolution) -> dict:
    """Instance dict extended with the solution and its metrics."""
    out = instance_to_dict(inst)
    out.update(x=sol.x.tolist(), z=sol.z.tolist(), metrics=asdict(metrics(inst, sol)))
    return out
