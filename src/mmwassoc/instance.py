"""Association instances, constraint auditing, objective, and metrics.

An instance holds the chain-level capacity matrix, per-UE rate
requirements, and the chain-ownership maps.  A solution is a binary
assignment ``x`` over (UE RF chain, BS RF chain) pairs plus per-UE
association flags ``z``.

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

from dataclasses import dataclass

import numpy as np

# Absolute slack (bit/s) when comparing aggregate rates to requirements.
RATE_TOL_BPS = 1e-6

ALL_CONSTRAINTS = ("5b", "5c", "5d", "5e", "5f")
STRUCTURAL_CONSTRAINTS = ("5b", "5c", "5d", "5e")


@dataclass(frozen=True)
class AssociationInstance:
    """Capacity matrix plus requirements and chain-ownership maps."""

    c: np.ndarray  # (n_ue_chains, n_bs_chains) bit/s
    rate_req: np.ndarray  # (n_ue,) bit/s
    n_ue_rf: int
    n_bs_rf: int
    ue_of_chain: np.ndarray  # (n_ue_chains,) UE index per UE chain
    bs_of_chain: np.ndarray  # (n_bs_chains,) BS index per BS chain

    def __post_init__(self) -> None:
        n_uc, n_bc = self.c.shape
        if self.ue_of_chain.shape != (n_uc,) or self.bs_of_chain.shape != (n_bc,):
            raise ValueError("ownership maps must match capacity matrix shape")
        ue_counts = np.bincount(self.ue_of_chain, minlength=self.n_ue)
        bs_counts = np.bincount(self.bs_of_chain, minlength=self.n_bs)
        if not np.all(ue_counts == self.n_ue_rf):
            raise ValueError("each UE must own exactly n_ue_rf chains")
        if not np.all(bs_counts == self.n_bs_rf):
            raise ValueError("each BS must own exactly n_bs_rf chains")
        if self.rate_req.shape != (self.n_ue,):
            raise ValueError("rate_req length must equal the number of UEs")
        if np.any(self.rate_req <= 0):
            raise ValueError("rate requirements must be > 0")
        if np.any(self.c < 0) or not np.all(np.isfinite(self.c)):
            raise ValueError("capacities must be finite and >= 0")

    @property
    def n_ue(self) -> int:
        return self.c.shape[0] // self.n_ue_rf

    @property
    def n_bs(self) -> int:
        return self.c.shape[1] // self.n_bs_rf

    @property
    def n_ue_chains(self) -> int:
        return self.c.shape[0]

    @property
    def n_bs_chains(self) -> int:
        return self.c.shape[1]


@dataclass(frozen=True)
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
    """Instance with canonical ownership: chain k belongs to device k // per-device count."""
    c = np.asarray(c, dtype=float)
    rate_req = np.asarray(rate_req, dtype=float)
    return AssociationInstance(
        c=c,
        rate_req=rate_req,
        n_ue_rf=n_ue_rf,
        n_bs_rf=n_bs_rf,
        ue_of_chain=np.arange(c.shape[0]) // n_ue_rf,
        bs_of_chain=np.arange(c.shape[1]) // n_bs_rf,
    )


def instance_from_capacity(cm, rate_req, cfg) -> AssociationInstance:
    """Build an instance from a CapacityMatrix and a ScenarioConfig."""
    return make_instance(cm.c, rate_req, cfg.n_ue_rf, cfg.n_bs_rf)


def _per_ue(inst: AssociationInstance, per_chain: np.ndarray) -> np.ndarray:
    """Sum a per-UE-chain quantity over the chains of each UE."""
    return np.bincount(inst.ue_of_chain, weights=per_chain, minlength=inst.n_ue)


def solution_from_x(inst: AssociationInstance, x: np.ndarray, z=None) -> AssociationSolution:
    """Complete a solution from x: derive per-UE rates and, unless given, z.

    The derived z flags any UE with at least one active link.
    """
    x = np.asarray(x)
    if x.shape != inst.c.shape:
        raise ValueError(f"x shape {x.shape} does not match instance {inst.c.shape}")
    per_ue_rate = _per_ue(inst, (x * inst.c).sum(axis=1))
    if z is None:
        z = (_per_ue(inst, x.sum(axis=1)) > 0).astype(int)
    return AssociationSolution(
        x=x.astype(int), z=np.asarray(z, dtype=int), per_ue_rate=per_ue_rate
    )


def empty_solution(inst: AssociationInstance) -> AssociationSolution:
    return AssociationSolution(
        x=np.zeros(inst.c.shape, dtype=int),
        z=np.zeros(inst.n_ue, dtype=int),
        per_ue_rate=np.zeros(inst.n_ue),
    )


def check_feasibility(
    inst: AssociationInstance,
    sol: AssociationSolution,
    constraints=ALL_CONSTRAINTS,
) -> FeasibilityReport:
    """Audit a candidate solution constraint by constraint.

    Violations carry (constraint id, offending index): the BS chain for
    5b, UE chain for 5c, BS for 5d, UE for 5e/5f.
    """
    x, z = sol.x, sol.z
    if x.shape != inst.c.shape or z.shape != (inst.n_ue,):
        raise ValueError("solution shape does not match instance")
    if not np.isin(x, (0, 1)).all() or not np.isin(z, (0, 1)).all():
        raise ValueError("x and z must be binary")

    violations: list[tuple[str, int]] = []
    chains_per_ue = _per_ue(inst, x.sum(axis=1))
    if "5b" in constraints:
        for j in np.flatnonzero(x.sum(axis=0) > 1):
            violations.append(("5b", int(j)))
    if "5c" in constraints:
        for i in np.flatnonzero(x.sum(axis=1) > 1):
            violations.append(("5c", int(i)))
    if "5d" in constraints:
        per_bs = np.bincount(inst.bs_of_chain, weights=x.sum(axis=0), minlength=inst.n_bs)
        for b in np.flatnonzero(per_bs > inst.n_bs_rf):
            violations.append(("5d", int(b)))
    if "5e" in constraints:
        for u in np.flatnonzero(chains_per_ue > z * inst.n_ue_rf):
            violations.append(("5e", int(u)))
    if "5f" in constraints:
        per_ue = _per_ue(inst, (x * inst.c).sum(axis=1))
        for u in np.flatnonzero(per_ue < z * inst.rate_req - RATE_TOL_BPS):
            violations.append(("5f", int(u)))
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def weight_term(c_ij, r_u, n_ue_rf: int):
    """Penalty of one active link: 1 / (n_ue_rf + 1 + c_ij / r_u).

    Broadcasts over arrays of capacities and requirements.  Every penalty
    lies in (0, 1/(n_ue_rf + 1)], inside the range of chain weights that
    keeps the satisfied-UE count primary: with F1 the number of
    associated UEs and F2 the negated number of active links, lam1*F1 +
    lam2*F2 maximizes F1 with the fewest chains when
    0 < lam2/lam1 < 1/n_ue_rf.
    """
    if np.any(np.asarray(r_u) <= 0):
        raise ValueError("rate requirement must be > 0")
    if np.any(np.asarray(c_ij) < 0):
        raise ValueError("capacity must be >= 0")
    w = 1.0 / (n_ue_rf + 1.0 + np.asarray(c_ij, dtype=float) / r_u)
    return float(w) if np.ndim(w) == 0 else w


def objective_step1(inst: AssociationInstance, sol: AssociationSolution) -> float:
    """Association score: sum(z) minus the weight_term of every active link.

    Associating is always worth more than the chains it spends, and
    higher-capacity links cost less.
    """
    weights = weight_term(inst.c, inst.rate_req[inst.ue_of_chain][:, None], inst.n_ue_rf)
    return float(sol.z.sum() - (sol.x * weights).sum())


def metrics(inst: AssociationInstance, sol: AssociationSolution) -> SolutionMetrics:
    """Associated/satisfied UE counts and network sum rate, all from x."""
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


def instance_from_dict(data: dict) -> AssociationInstance:
    return AssociationInstance(
        c=np.asarray(data["capacity_bps"], dtype=float),
        rate_req=np.asarray(data["rate_req_bps"], dtype=float),
        n_ue_rf=int(data["n_ue_rf"]),
        n_bs_rf=int(data["n_bs_rf"]),
        ue_of_chain=np.asarray(data["ue_of_chain"], dtype=int),
        bs_of_chain=np.asarray(data["bs_of_chain"], dtype=int),
    )


def solution_to_dict(inst: AssociationInstance, sol: AssociationSolution) -> dict:
    """Instance dict extended with the solution and its metrics."""
    m = metrics(inst, sol)
    out = instance_to_dict(inst)
    out.update(
        {
            "x": sol.x.tolist(),
            "z": sol.z.tolist(),
            "metrics": {
                "n_associated": m.n_associated,
                "n_satisfied": m.n_satisfied,
                "sum_rate_bps": m.sum_rate_bps,
            },
        }
    )
    return out
