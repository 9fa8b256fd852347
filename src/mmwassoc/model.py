"""Scenario synthesis and RF-chain link-capacity modeling.

Downlink network of base stations (BSs) and user equipments (UEs).  Each
device drives several RF chains and each RF chain a uniform linear array
(ULA).  Every (UE RF chain, BS RF chain) pair communicates over a
single-path channel; its capacity is

    c = B * log2(1 + SNR),
    SNR = (P / split) * g * Na_ue * Na_bs * G_ue * G_bs / (B * N0),

where g is the device-pair path gain, Na_* the per-chain antenna counts,
and G_* in [0, 1] the beamforming gains lost to imperfect angle
estimates.  `split` is the transmit-power division across BS RF chains,
n_bs_rf ** 2 as the paper prints it.  It is not configurable: a config
file that still names the former power_split_mode key is refused, like
any unknown key (the CLI exits with status 2).

All randomness is drawn from PCG64 generators seeded by splitting
``SeedSequence(cfg.seed)`` into one child stream per sampled quantity
(UE positions, rate requirements, true AoA, true AoD, AoA error, AoD
error, in that order), so realizations are bit-reproducible.

The capacity matrix is a plain read-only array in bit/s, rows = UE RF
chains, cols = BS RF chains; `AssociationInstance` validates it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .instance import count, real
from .lp import store_bytes

# Distances below this floor are clamped before the path-loss log.
DISTANCE_FLOOR_M = 1.0

# The largest array a cell of a default sweep may allocate, in bytes, so that
# a config cannot ask for a scenario the sweep cannot hold in memory.  The
# step-1 simplex store is that array: 0.32 MB on desk.cfg, 3.9 MB on full.cfg
# and 68 MB at 9 BSs x 100 UEs.
CELL_ARRAY_BYTES_MAX = 2**30

_COUNTS = ("n_bs", "n_ue", "n_bs_rf", "n_ue_rf", "n_bs_ant", "n_ue_ant")

_RNG_STREAMS = ("ue_pos", "rate", "true_aoa", "true_aod", "err_aoa", "err_aod")

# Parser of each field type annotation of the flat dataclasses read from text.
FIELD_PARSERS = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class ScenarioConfig:
    """All generative parameters of a scenario.

    Counts are devices/chains/antennas, powers in dBm, noise density in
    dBm/Hz, rates in bit/s, angle-error sigmas in degrees.  Each count
    (at least 1) and the seed (at least 0) pass instance.count and are
    stored as plain ints; together the counts must keep a cell's largest
    array within CELL_ARRAY_BYTES_MAX.  Every other field passes
    instance.real and is stored as a plain float.  Defaults are
    the dense urban evaluation setting (5 BSs on a 200 m grid, 30 UEs,
    5x2 RF chains, 32/8 antennas, 30 dBm, -174 dBm/Hz, 200 MHz, 28 GHz).
    """

    n_bs: int = 5
    n_ue: int = 30
    bs_spacing: float = 200.0
    n_bs_rf: int = 5
    n_ue_rf: int = 2
    n_bs_ant: int = 32
    n_ue_ant: int = 8
    tx_power_dbm: float = 30.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 200e6
    carrier_ghz: float = 28.0
    r_min_bps: float = 0.3e9
    r_max_bps: float = 2e9
    sigma_aod_deg: float = 1.0
    sigma_aoa_deg: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _COUNTS:
            object.__setattr__(self, name, count(getattr(self, name), name))
        object.__setattr__(self, "seed", count(self.seed, "seed", least=0))
        if (largest := self.cell_array_bytes) > CELL_ARRAY_BYTES_MAX:
            counts = ", ".join(f"{name} = {getattr(self, name)}" for name in _COUNTS)
            raise ValueError(
                f"{counts} need a {largest}-byte array per cell, over the bound of "
                f"{CELL_ARRAY_BYTES_MAX} bytes (CELL_ARRAY_BYTES_MAX)"
            )
        for name in ("bandwidth_hz", "bs_spacing", "carrier_ghz", "r_min_bps"):
            object.__setattr__(self, name, real(getattr(self, name), name, 0))
        for name in ("tx_power_dbm", "noise_psd_dbm_hz"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        for name in ("r_max_bps", "sigma_aod_deg", "sigma_aoa_deg"):
            low = self.r_min_bps if name == "r_max_bps" else 0
            object.__setattr__(self, name, real(getattr(self, name), name, low, strict=False))
        # Finite dB values can still overflow the link budget and poison
        # every capacity: check the strongest link any scenario can hold,
        # at the distance floor with full beam gains.  It bounds every link
        # and r_min_bps every requirement, so its ratio to r_min_bps bounds
        # every c_ij / r_u, and its product with the number of chain pairs
        # every sum of capacities; each must be finite too.
        n_pairs = self.n_ue_chains * self.n_bs_chains
        try:
            with np.errstate(all="ignore"):
                peak = float(
                    link_capacity(_path_gain(DISTANCE_FLOOR_M, self.carrier_ghz), 1.0, 1.0, self)
                )
            in_range = all(map(math.isfinite, (peak, peak / self.r_min_bps, peak * n_pairs)))
        except OverflowError:
            peak, in_range = math.inf, False
        if not in_range:
            raise ValueError(
                "the link budget (tx_power_dbm, noise_psd_dbm_hz, bandwidth_hz, carrier_ghz) "
                f"is out of range: the strongest link's capacity would be {peak} bit/s, "
                f"and it, its ratio to r_min_bps and its sum over {n_pairs} chain pairs "
                "must be finite"
            )
        # A UE-BS distance is the norm of an offset within the BS grid, so
        # the square of the grid's diagonal must be finite too.  The size
        # bound has refused an n_bs that _grid_shape would take long to factor.
        rows, cols = _grid_shape(self.n_bs)
        diagonal_sq = ((rows - 1) ** 2 + (cols - 1) ** 2) * self.bs_spacing * self.bs_spacing
        if not math.isfinite(diagonal_sq):
            raise ValueError(
                f"bs_spacing {self.bs_spacing} puts the BS grid's diagonal out of range"
            )

    def for_cell(self, r_max_bps, seed) -> "ScenarioConfig":
        """This config with r_max_bps and seed replaced: what
        dataclasses.replace gives, but only those two fields are checked,
        the seed first, as __post_init__ would check them.  Every other
        field, the size bound and the link budget were checked when this
        config was built and depend on neither, so a sweep's cells skip them.
        """
        seed = count(seed, "seed", least=0)
        r_max_bps = real(r_max_bps, "r_max_bps", self.r_min_bps, strict=False)
        cell = object.__new__(type(self))  # frozen: fill the field dict directly
        cell.__dict__.update(self.__dict__, r_max_bps=r_max_bps, seed=seed)
        return cell

    @property
    def n_ue_chains(self) -> int:
        return self.n_ue * self.n_ue_rf

    @property
    def n_bs_chains(self) -> int:
        return self.n_bs * self.n_bs_rf

    @property
    def cell_array_bytes(self) -> int:
        """Bytes of the largest array a cell of a default sweep allocates,
        from the counts alone: the simplex store of the step-1 LP, whose
        rows are 5b, 5c, 5e and 5f and whose columns are x and z, or a
        beamforming_gain temporary, one complex128 per chain pair and antenna."""
        n_pairs = self.n_ue_chains * self.n_bs_chains
        m = self.n_bs_chains + self.n_ue_chains + 2 * self.n_ue
        gains = 16 * n_pairs * max(self.n_ue_ant, self.n_bs_ant)
        return max(store_bytes(m, n_pairs + self.n_ue), gains)

    def to_config_file(self, path: str | Path) -> None:
        """Write a flat ``key = value`` config, one field per line."""
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_config_file(cls, path: str | Path) -> "ScenarioConfig":
        """Read a ``key = value`` config; keys must match field names and
        appear at most once."""
        types = {f.name: f.type for f in fields(cls)}
        kwargs: dict = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                kwargs[key] = FIELD_PARSERS[types[key]](value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key!r} expects {types[key]}, got {value!r}"
                ) from None
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class ScenarioRealization:
    """One sampled scenario.

    Angle arrays are indexed (UE RF chain, BS RF chain); UE chain i
    belongs to UE i // n_ue_rf and BS chain j to BS j // n_bs_rf.
    ``path_gain`` is linear power gain per (UE, BS) device pair; all
    chain pairs of the same device pair share it.
    """

    bs_positions: np.ndarray  # (n_bs, 2) m
    ue_positions: np.ndarray  # (n_ue, 2) m
    rate_req: np.ndarray  # (n_ue,) bit/s
    true_aoa: np.ndarray  # (n_ue_chains, n_bs_chains) rad
    true_aod: np.ndarray
    est_aoa: np.ndarray
    est_aod: np.ndarray
    path_gain: np.ndarray  # (n_ue, n_bs) linear


def beamforming_gain(est_angle, true_angle, n: int):
    """Power overlap |a(est)^H a(true)|^2 of two ULA responses, in [0, 1].

    a(angle) is the n-element response, element k being
    exp(-j*pi*k*sin(angle)) / sqrt(n).  Broadcasts over array-valued
    angles.  Equals 1 exactly when sin(est) == sin(true) (and at grating
    repeats where they differ by an even integer).  A NaN or infinite
    angle raises ValueError.
    """
    n = count(n, "element count")
    est = np.asarray(est_angle, dtype=float)
    true = np.asarray(true_angle, dtype=float)
    if not (np.isfinite(est).all() and np.isfinite(true).all()):
        raise ValueError("angles must be finite")
    delta = np.sin(est) - np.sin(true)
    # |sum_k exp(j*pi*k*delta)|^2 / n^2, the squared inner product.
    s = np.exp(1j * np.pi * np.multiply.outer(delta, np.arange(n))).sum(axis=-1)
    return (s.real**2 + s.imag**2) / n**2


def path_loss_db(distance_m, carrier_ghz: float):
    """Urban-micro LOS path loss: 32.4 + 21*log10(d_m) + 20*log10(f_GHz).

    Distances below DISTANCE_FLOOR_M are clamped to the floor;
    non-positive distances additionally raise a warning, and a NaN
    distance raises ValueError.  The carrier passes instance.real: finite
    and > 0.
    """
    carrier_ghz = real(carrier_ghz, "carrier frequency", 0)
    d = np.asarray(distance_m, dtype=float)
    if np.isnan(d).any():
        raise ValueError("distance must not be NaN")
    if (d <= 0).any():
        warnings.warn(
            f"non-positive distance clamped to {DISTANCE_FLOOR_M} m", stacklevel=2
        )
    d = np.maximum(d, DISTANCE_FLOOR_M)
    return 32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(carrier_ghz)


def _path_gain(distance_m, carrier_ghz: float):
    """Linear power gain of path_loss_db(distance_m, carrier_ghz)."""
    return 10.0 ** (-path_loss_db(distance_m, carrier_ghz) / 10.0)


def link_capacity(path_gain, gain_ue, gain_bs, cfg: ScenarioConfig):
    """Capacity B*log2(1 + SNR) in bit/s for one (or many) chain pairs."""
    for name, g in (("path_gain", path_gain), ("gain_ue", gain_ue), ("gain_bs", gain_bs)):
        if not (np.asarray(g) >= 0).all():  # NaN fails too
            raise ValueError(f"{name} must be >= 0")
    p_mw = 10.0 ** (cfg.tx_power_dbm / 10.0)
    n0_mw_hz = 10.0 ** (cfg.noise_psd_dbm_hz / 10.0)
    snr = (
        (p_mw / cfg.n_bs_rf**2)
        * np.asarray(path_gain, dtype=float)
        * cfg.n_ue_ant
        * cfg.n_bs_ant
        * gain_ue
        * gain_bs
        / (cfg.bandwidth_hz * n0_mw_hz)
    )
    return cfg.bandwidth_hz * np.log2(1.0 + snr)


def _grid_shape(n: int) -> tuple[int, int]:
    """Most-square rows x cols factorization of n (rows <= cols)."""
    rows = int(math.isqrt(n))
    while n % rows:
        rows -= 1
    return rows, n // rows


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def sample_scenario(cfg: ScenarioConfig) -> ScenarioRealization:
    """Draw one scenario realization, deterministic in cfg.seed.

    BSs sit on a regular grid with cfg.bs_spacing between neighbors
    (most-square factorization of n_bs, e.g. 5 -> 1x5 line); UEs are
    uniform in the grid's bounding rectangle.  A one-row grid (any prime
    n_bs, and both shipped configs: desk.cfg 1x3, full.cfg 1x5) has a
    zero-height rectangle, so every UE lies on the BS line, at y == 0.
    True AoA/AoD are i.i.d. uniform on (-pi/2, pi/2) per chain pair;
    estimates add zero-mean Gaussian errors with the configured sigmas.
    Rate requirements are uniform on [r_min_bps, r_max_bps].
    """
    root = np.random.SeedSequence(cfg.seed)
    gens = {
        name: np.random.Generator(np.random.PCG64(child))
        for name, child in zip(_RNG_STREAMS, root.spawn(len(_RNG_STREAMS)))
    }

    rows, cols = _grid_shape(cfg.n_bs)
    grid_r, grid_c = np.divmod(np.arange(cfg.n_bs), cols)
    bs_pos = np.column_stack((grid_c, grid_r)).astype(float) * cfg.bs_spacing
    high = np.array([(cols - 1) * cfg.bs_spacing, (rows - 1) * cfg.bs_spacing])
    ue_pos = gens["ue_pos"].uniform(low=0.0, high=high, size=(cfg.n_ue, 2))

    rate_req = gens["rate"].uniform(cfg.r_min_bps, cfg.r_max_bps, size=cfg.n_ue)

    shape = (cfg.n_ue_chains, cfg.n_bs_chains)
    true_aoa = gens["true_aoa"].uniform(-np.pi / 2, np.pi / 2, size=shape)
    true_aod = gens["true_aod"].uniform(-np.pi / 2, np.pi / 2, size=shape)
    est_aoa = true_aoa + math.radians(cfg.sigma_aoa_deg) * gens["err_aoa"].standard_normal(shape)
    est_aod = true_aod + math.radians(cfg.sigma_aod_deg) * gens["err_aod"].standard_normal(shape)

    dist = np.linalg.norm(ue_pos[:, None, :] - bs_pos[None, :, :], axis=-1)
    path_gain = _path_gain(dist, cfg.carrier_ghz)

    return ScenarioRealization(
        bs_positions=_freeze(bs_pos),
        ue_positions=_freeze(ue_pos),
        rate_req=_freeze(rate_req),
        true_aoa=_freeze(true_aoa),
        true_aod=_freeze(true_aod),
        est_aoa=_freeze(est_aoa),
        est_aod=_freeze(est_aod),
        path_gain=_freeze(path_gain),
    )


def build_capacity_matrix(real: ScenarioRealization, cfg: ScenarioConfig) -> np.ndarray:
    """Read-only capacity in bit/s of every (UE RF chain, BS RF chain) pair,
    shape U_v x B_v."""
    shape = (cfg.n_ue_chains, cfg.n_bs_chains)
    if real.true_aoa.shape != shape or real.path_gain.shape != (cfg.n_ue, cfg.n_bs):
        raise ValueError(
            f"realization shapes {real.true_aoa.shape}/{real.path_gain.shape} "
            f"do not match config ({shape}, {(cfg.n_ue, cfg.n_bs)})"
        )
    gain_ue = beamforming_gain(real.est_aoa, real.true_aoa, cfg.n_ue_ant)
    gain_bs = beamforming_gain(real.est_aod, real.true_aod, cfg.n_bs_ant)
    pg = np.repeat(np.repeat(real.path_gain, cfg.n_ue_rf, axis=0), cfg.n_bs_rf, axis=1)
    c = link_capacity(pg, gain_ue, gain_bs, cfg)
    return _freeze(np.asarray(c))
