import hashlib
import math
import operator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mmwassoc as m
from mmwassoc import harness
from mmwassoc.model import DISTANCE_FLOOR_M, _grid_shape

angles = st.floats(-math.pi, math.pi, allow_nan=False)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# steering_vector: the oracle for beamforming_gain
# ---------------------------------------------------------------------------


def steering_vector(angle: float, n: int) -> np.ndarray:
    """ULA spatial response: element k is exp(-j*pi*k*sin(angle)) / sqrt(n)."""
    if operator.index(n) < 1:  # a float count raises TypeError
        raise ValueError(f"element count must be >= 1, got {n}")
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    k = np.arange(n)
    return np.exp(-1j * np.pi * k * np.sin(angle)) / math.sqrt(n)


def test_steering_vector_zero_angle():
    np.testing.assert_allclose(steering_vector(0.0, 4), np.full(4, 0.5), atol=1e-15)


def test_steering_vector_pi_half_two_elements():
    np.testing.assert_allclose(
        steering_vector(math.pi / 2, 2), np.array([1.0, -1.0]) / math.sqrt(2), atol=1e-15
    )


def test_steering_vector_pi_sixth():
    # sin(pi/6) = 1/2, so element k should be exp(-j*pi*k/2)/sqrt(8)
    got = steering_vector(math.pi / 6, 8)
    want = np.array([np.exp(-1j * math.pi * k * 0.5) for k in range(8)]) / math.sqrt(8)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_steering_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        steering_vector(0.0, 0)
    with pytest.raises(ValueError):
        steering_vector(math.nan, 4)
    with pytest.raises(TypeError):  # was 3 elements scaled by 1/sqrt(2.5)
        steering_vector(0.3, 2.5)


@given(angles, st.integers(1, 256))
def test_steering_vector_unit_norm(angle, n):
    assert abs(np.linalg.norm(steering_vector(angle, n)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# beamforming_gain
# ---------------------------------------------------------------------------


@given(angles, st.integers(1, 64))
def test_beamforming_gain_self_is_one(angle, n):
    assert m.beamforming_gain(angle, angle, n) == pytest.approx(1.0, abs=1e-12)


@given(angles, angles, st.integers(1, 64))
def test_beamforming_gain_bounds(est, true, n):
    g = m.beamforming_gain(est, true, n)
    assert 0.0 <= g <= 1.0 + 1e-12


def test_beamforming_gain_rejects_bad_element_count():
    with pytest.raises(ValueError):
        m.beamforming_gain(0.3, 0.3, 0)
    with pytest.raises(TypeError):  # was 1.44, outside [0, 1]
        m.beamforming_gain(0.3, 0.3, 2.5)


def test_beamforming_gain_orthogonal_two_elements():
    # sin(true)=0 vs sin(est)=1: [1,1]/sqrt(2) vs [1,-1]/sqrt(2)
    assert m.beamforming_gain(math.pi / 2, 0.0, 2) == pytest.approx(0.0, abs=1e-12)


def test_beamforming_gain_eight_element_offset():
    # Independent route: Dirichlet kernel |sin(n pi d/2) / (n sin(pi d/2))|^2
    # with d = sin(2 deg), evaluates to the frozen value below.
    assert m.beamforming_gain(math.radians(2.0), 0.0, 8) == pytest.approx(
        0.9384498076220291, abs=1e-12
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_beamforming_gain_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="finite"):
        m.beamforming_gain(bad, 0.1, 8)
    with pytest.raises(ValueError, match="finite"):
        m.beamforming_gain(np.array([0.1, 0.2]), np.array([0.0, bad]), 8)


def test_beamforming_gain_matches_steering_inner_product():
    rng = np.random.default_rng(3)
    for est, true in rng.uniform(-1.5, 1.5, (20, 2)):
        for n in (1, 2, 8, 32):
            inner = np.vdot(steering_vector(est, n), steering_vector(true, n))
            assert m.beamforming_gain(est, true, n) == pytest.approx(
                abs(inner) ** 2, abs=1e-12
            )


# ---------------------------------------------------------------------------
# path_loss_db
# ---------------------------------------------------------------------------


def test_path_loss_reference_points():
    assert m.path_loss_db(1.0, 1.0) == pytest.approx(32.4, abs=1e-12)
    # Formula-exact values; 32.4 + 21*log10(d) + 20*log10(28).
    assert m.path_loss_db(100.0, 28.0) == pytest.approx(103.3431606268444, abs=1e-9)
    assert m.path_loss_db(200.0, 28.0) == pytest.approx(109.664790535788, abs=1e-9)


def test_path_loss_clamps_and_warns():
    with pytest.warns(UserWarning):
        pl = m.path_loss_db(-5.0, 28.0)
    assert pl == m.path_loss_db(DISTANCE_FLOOR_M, 28.0)
    # sub-floor but positive distances clamp silently
    assert m.path_loss_db(0.5, 28.0) == m.path_loss_db(DISTANCE_FLOOR_M, 28.0)


def test_path_loss_rejects_nan_distance():
    with pytest.raises(ValueError, match="NaN"):
        m.path_loss_db(np.nan, 28.0)
    with pytest.raises(ValueError, match="NaN"):
        m.path_loss_db(np.array([10.0, np.nan]), 28.0)


@pytest.mark.parametrize("carrier", [0.0, -28.0, math.nan, math.inf, -math.inf])
def test_path_loss_rejects_a_carrier_that_is_not_finite_and_positive(carrier):
    with pytest.raises(ValueError, match="carrier frequency must be finite and > 0"):
        m.path_loss_db(100.0, carrier)


@given(st.floats(1.0, 1e5), st.floats(1.0, 1e5))
def test_path_loss_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert m.path_loss_db(lo, 28.0) <= m.path_loss_db(hi, 28.0) + 1e-12


# ---------------------------------------------------------------------------
# link_capacity
# ---------------------------------------------------------------------------


def test_link_capacity_zero_gain():
    cfg = m.ScenarioConfig()
    assert m.link_capacity(0.0, 1.0, 1.0, cfg) == 0.0


def test_link_capacity_unit_snr():
    # Solve for the path gain that makes SNR exactly 1; capacity must be B.
    cfg = m.ScenarioConfig()
    p_mw = 10 ** (cfg.tx_power_dbm / 10)
    n0 = 10 ** (cfg.noise_psd_dbm_hz / 10)
    g = cfg.bandwidth_hz * n0 * cfg.n_bs_rf**2 / (p_mw * cfg.n_ue_ant * cfg.n_bs_ant)
    assert m.link_capacity(g, 1.0, 1.0, cfg) == pytest.approx(2e8, rel=1e-12)


def test_link_capacity_reference_chain():
    # End-to-end at the default config, 100 m, perfect alignment,
    # cross-checked against an independent hand calculation:
    #   PL = 103.3431606... dB, SNR = 595.59891..., c = 1.8441235e9 b/s.
    cfg = m.ScenarioConfig()
    g = 10 ** (-m.path_loss_db(100.0, cfg.carrier_ghz) / 10)
    got = m.link_capacity(g, 1.0, 1.0, cfg)
    p_mw = 10 ** (cfg.tx_power_dbm / 10)
    n0 = 10 ** (cfg.noise_psd_dbm_hz / 10)
    snr = (p_mw / 25) * g * 8 * 32 / (cfg.bandwidth_hz * n0)
    assert got == pytest.approx(cfg.bandwidth_hz * math.log2(1 + snr), rel=1e-14)
    assert got == pytest.approx(1844123508.9815361, rel=1e-12)


@given(st.floats(0, 1e-8), st.floats(0, 1e-8))
def test_link_capacity_monotone_in_path_gain(g1, g2):
    cfg = m.ScenarioConfig()
    lo, hi = sorted((g1, g2))
    assert m.link_capacity(lo, 1.0, 1.0, cfg) <= m.link_capacity(hi, 1.0, 1.0, cfg) + 1e-9


@given(st.floats(0, 1), st.floats(0, 1))
def test_link_capacity_monotone_in_beam_gains(a, b):
    cfg = m.ScenarioConfig()
    lo, hi = sorted((a, b))
    g = 1e-10
    assert m.link_capacity(g, lo, 1.0, cfg) <= m.link_capacity(g, hi, 1.0, cfg) + 1e-9
    assert m.link_capacity(g, 1.0, lo, cfg) <= m.link_capacity(g, 1.0, hi, cfg) + 1e-9


def test_link_capacity_rejects_negative_gain():
    with pytest.raises(ValueError):
        m.link_capacity(-1e-9, 1.0, 1.0, m.ScenarioConfig())
    with pytest.raises(ValueError, match="path_gain"):  # NaN is not >= 0
        m.link_capacity(np.nan, 1.0, 1.0, m.ScenarioConfig())


# ---------------------------------------------------------------------------
# ScenarioConfig
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        m.ScenarioConfig(n_bs=0)
    with pytest.raises(ValueError):
        m.ScenarioConfig(r_min_bps=2e9, r_max_bps=1e9)
    with pytest.raises(ValueError):
        m.ScenarioConfig(sigma_aoa_deg=-1.0)
    # A float count would pass the range check and fail only in sampling.
    for name in ("n_bs", "n_ue", "n_bs_rf", "n_ue_rf", "n_bs_ant", "n_ue_ant"):
        with pytest.raises(TypeError):
            m.ScenarioConfig(**{name: 2.0})
    with pytest.raises(TypeError):
        m.ScenarioConfig(seed=1.5)  # would fail only in SeedSequence
    # A non-finite value would pass the range checks and poison every capacity.
    for name in (
        "bandwidth_hz", "bs_spacing", "carrier_ghz", "tx_power_dbm",
        "noise_psd_dbm_hz", "sigma_aod_deg", "sigma_aoa_deg",
    ):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                m.ScenarioConfig(**{name: bad})


@pytest.mark.parametrize(
    "field",
    [
        {"tx_power_dbm": 1e6},
        {"noise_psd_dbm_hz": 1e6},
        {"noise_psd_dbm_hz": -1e6},
        {"bandwidth_hz": 1e-300},
        {"carrier_ghz": 1e-300},
        {"bandwidth_hz": 1e300, "tx_power_dbm": 2900.0, "r_min_bps": 1e-10, "r_max_bps": 1e-9},
        {"bandwidth_hz": 1e306, "tx_power_dbm": 2950.0},
    ],
    ids=lambda field: "{}={}".format(*next(iter(field.items()))),
)
def test_config_rejects_a_finite_link_budget_that_overflows(field):
    # Each value is finite, yet the strongest link's capacity is not
    # (OverflowError in the dB conversion, or an infinite SNR), so every
    # sampled capacity would be poisoned as by a non-finite value.  In the
    # last two cases the capacity is finite, but its ratio to r_min_bps
    # (which bounds every c_ij / r_u) or its sum over the 60 chain pairs
    # (which bounds every sum of capacities) is not.
    with pytest.raises(ValueError, match="link budget"):
        m.ScenarioConfig(n_bs=2, n_ue=3, **field)


def test_config_accepts_that_peak_over_a_single_chain_pair():
    # The last case above is refused for its 60 chain pairs, not its peak.
    m.ScenarioConfig(n_bs=1, n_ue=1, n_bs_rf=1, n_ue_rf=1, bandwidth_hz=1e306, tx_power_dbm=2950.0)


def test_config_accepts_zero_transmit_power():
    # 10 ** (-1e5 / 10) is 0 mW: every capacity is 0, which is valid.
    cfg = m.ScenarioConfig(n_bs=2, n_ue=3, tx_power_dbm=-1e6)
    c = m.build_capacity_matrix(m.sample_scenario(cfg), cfg)
    assert c.shape == (6, 10) and (c == 0.0).all()


def test_config_rejects_nonfinite_or_nonpositive_rates():
    nan, inf = float("nan"), float("inf")
    for r_min, r_max in ((0.3e9, nan), (nan, 2e9), (0.3e9, inf), (0.0, 2e9), (-1e9, 2e9)):
        with pytest.raises(ValueError, match="finite"):
            m.ScenarioConfig(r_min_bps=r_min, r_max_bps=r_max)


@st.composite
def checked_bases(draw):
    """A valid ScenarioConfig with random counts, rates, sigmas and seed."""
    r_min = draw(st.floats(1.0, 1e10))
    return m.ScenarioConfig(
        n_bs=draw(st.integers(1, 6)),
        n_ue=draw(st.integers(1, 12)),
        n_bs_rf=draw(st.integers(1, 4)),
        n_ue_rf=draw(st.integers(1, 3)),
        bs_spacing=draw(st.floats(1.0, 1e4)),
        r_min_bps=r_min,
        r_max_bps=draw(st.floats(r_min, 1e11)),
        sigma_aod_deg=draw(st.floats(0.0, 10.0)),
        seed=draw(st.integers(0, 2**64)),
    )


def _outcome(make):
    """make() as what it returns, field by field with each type, or as the
    type and message of what it raises."""
    try:
        cfg = make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return [(name, type(value), value) for name, value in vars(cfg).items()]


valid_seeds = st.one_of(st.integers(0, 2**70), st.integers(0, 2**63).map(np.uint64))
valid_r_max = st.one_of(
    st.floats(1e10, 1e12), st.integers(10**10, 10**12), st.just(np.float64(2e10))
)


@given(checked_bases(), valid_r_max, valid_seeds)
def test_for_cell_equals_replace_on_valid_values(base, r_max, seed):
    got = base.for_cell(r_max, seed)
    assert _outcome(lambda: got) == _outcome(lambda: replace(base, r_max_bps=r_max, seed=seed))
    assert got == replace(base, r_max_bps=r_max, seed=seed)
    assert base.for_cell(base.r_min_bps, 0).r_max_bps == base.r_min_bps  # the bound is inclusive


# Each is invalid as a seed or as an r_max, most as both.
odd_values = st.sampled_from(
    [-1, -(2**70), 1.5, np.float64(2e10), True, False, None, "3", math.nan, math.inf, -math.inf,
     0.0, 1.0, 10**400, np.int64(-3)]
)  # fmt: skip


@given(checked_bases(), st.one_of(valid_r_max, odd_values), st.one_of(valid_seeds, odd_values))
@example(m.ScenarioConfig(), math.nan, -1)  # both bad: the seed's error comes first
@example(m.ScenarioConfig(), 1e8, True)
@example(m.ScenarioConfig(), 10**400, 7)
def test_for_cell_raises_what_replace_raises(base, r_max, seed):
    expected = _outcome(lambda: replace(base, r_max_bps=r_max, seed=seed))
    assert _outcome(lambda: base.for_cell(r_max, seed)) == expected


def test_config_file_round_trip(tmp_path):
    cfg = m.ScenarioConfig(n_bs=3, n_ue=7, seed=99, r_max_bps=1.5e9)
    path = tmp_path / "scenario.cfg"
    cfg.to_config_file(path)
    assert m.ScenarioConfig.from_config_file(path) == cfg


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_bs = 3\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        m.ScenarioConfig.from_config_file(path)


def test_config_file_rejects_repeated_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("n_ue = 10\nn_bs = 3\nn_ue = 12\n")
    with pytest.raises(ValueError, match=r"dup\.cfg:3: repeated key 'n_ue'"):
        m.ScenarioConfig.from_config_file(path)


def test_config_file_reports_malformed_number_with_line_and_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_bs = 3\nn_ue = 1.5\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: 'n_ue' expects int, got '1\.5'"):
        m.ScenarioConfig.from_config_file(path)


def test_grid_shape_factorizations():
    assert _grid_shape(5) == (1, 5)
    assert _grid_shape(4) == (2, 2)
    assert _grid_shape(6) == (2, 3)
    assert _grid_shape(1) == (1, 1)


# ---------------------------------------------------------------------------
# sample_scenario
# ---------------------------------------------------------------------------


def test_sample_scenario_shapes_and_ranges():
    cfg = m.ScenarioConfig(n_bs=4, n_ue=6, seed=5)
    real = m.sample_scenario(cfg)
    assert real.bs_positions.shape == (4, 2)
    assert real.ue_positions.shape == (6, 2)
    assert real.true_aoa.shape == (12, 20)
    assert real.path_gain.shape == (6, 4)
    assert np.all(real.rate_req >= cfg.r_min_bps)
    assert np.all(real.rate_req <= cfg.r_max_bps)
    assert np.all(np.abs(real.true_aoa) < math.pi / 2)
    # neighboring BSs sit bs_spacing apart on the grid
    assert np.isclose(
        np.linalg.norm(real.bs_positions[1] - real.bs_positions[0]), cfg.bs_spacing
    )


@pytest.mark.parametrize("config", ["desk.cfg", "full.cfg"])
def test_one_row_grid_puts_every_ue_on_the_bs_line(config):
    # Both shipped configs have a 1 x n_bs grid, so the UE rectangle has
    # zero height: UEs spread along the BS line and never off it.
    cfg = m.ScenarioConfig.from_config_file(CONFIGS / config)
    assert _grid_shape(cfg.n_bs) == (1, cfg.n_bs)
    for seed in range(5):
        real = m.sample_scenario(replace(cfg, seed=seed))
        assert (real.bs_positions[:, 1] == 0.0).all()
        assert (real.ue_positions[:, 1] == 0.0).all()
        assert real.ue_positions[:, 0].max() <= (cfg.n_bs - 1) * cfg.bs_spacing
        assert np.unique(real.ue_positions[:, 0]).size == cfg.n_ue


def test_sample_scenario_zero_sigma_means_perfect_estimates():
    cfg = m.ScenarioConfig(sigma_aoa_deg=0.0, sigma_aod_deg=0.0, seed=2)
    real = m.sample_scenario(cfg)
    np.testing.assert_array_equal(real.est_aoa, real.true_aoa)
    np.testing.assert_array_equal(real.est_aod, real.true_aod)


def test_sample_scenario_fixed_requirement():
    cfg = m.ScenarioConfig(r_min_bps=0.3e9, r_max_bps=0.3e9, seed=3)
    real = m.sample_scenario(cfg)
    np.testing.assert_array_equal(real.rate_req, np.full(cfg.n_ue, 0.3e9))


def test_sample_scenario_deterministic():
    cfg = m.ScenarioConfig(seed=17)
    a, b = m.sample_scenario(cfg), m.sample_scenario(cfg)
    np.testing.assert_array_equal(a.ue_positions, b.ue_positions)
    np.testing.assert_array_equal(a.est_aoa, b.est_aoa)
    np.testing.assert_array_equal(a.rate_req, b.rate_req)


def test_sample_scenario_error_statistics():
    # est - true should be zero-mean Gaussian with the configured sigma;
    # 60 * 25 = 1500 samples keep the empirical std within a few percent.
    cfg = m.ScenarioConfig(seed=29)
    real = m.sample_scenario(cfg)
    err_aoa = np.degrees(real.est_aoa - real.true_aoa)
    err_aod = np.degrees(real.est_aod - real.true_aod)
    assert abs(err_aoa.std() - cfg.sigma_aoa_deg) < 0.12 * cfg.sigma_aoa_deg
    assert abs(err_aod.std() - cfg.sigma_aod_deg) < 0.12 * cfg.sigma_aod_deg
    assert abs(err_aoa.mean()) < 0.3


# ---------------------------------------------------------------------------
# build_capacity_matrix
# ---------------------------------------------------------------------------


def test_capacity_matrix_single_pair():
    cfg = m.ScenarioConfig(n_bs=1, n_ue=1, n_bs_rf=1, n_ue_rf=1, seed=1)
    # A 1-BS grid has a degenerate bounding box: the UE lands on the BS
    # and the zero distance is clamped (with its warning).
    with pytest.warns(UserWarning):
        real = m.sample_scenario(cfg)
    cm = m.build_capacity_matrix(real, cfg)
    assert cm.shape == (1, 1)
    want = m.link_capacity(
        real.path_gain[0, 0],
        m.beamforming_gain(real.est_aoa[0, 0], real.true_aoa[0, 0], cfg.n_ue_ant),
        m.beamforming_gain(real.est_aod[0, 0], real.true_aod[0, 0], cfg.n_bs_ant),
        cfg,
    )
    assert cm[0, 0] == pytest.approx(want, rel=1e-14)


def test_capacity_matrix_default_shape():
    cfg = m.ScenarioConfig()
    cm = m.build_capacity_matrix(m.sample_scenario(cfg), cfg)
    assert cm.shape == (60, 25)


def test_capacity_matrix_bit_exact_reproducible():
    cfg = m.ScenarioConfig(seed=23)
    a = m.build_capacity_matrix(m.sample_scenario(cfg), cfg)
    b = m.build_capacity_matrix(m.sample_scenario(cfg), cfg)
    np.testing.assert_array_equal(a, b)


# (config, r_max, sha256 of the capacity matrix's bytes) of run 0's cell,
# sampled as a sweep samples it.  They pin the exact bits of the beam
# gains, path gains and capacities, so a rewrite of any of them (a cos/sin
# beam gain, say) must reproduce these; they hold for this platform's
# numpy and libm.
CAPACITY_PINS = [
    ("desk.cfg", 0.5e9, "df3f3dbdca35fcc6d1f8f84ba155901729f86fbb8ccc1b578feb7ddc9223000f"),
    ("desk.cfg", 8e9, "591180170d1b66fe0de2884ccb1fba223998c859a5d90d8341ce70a5c436aa38"),
    ("full.cfg", 0.5e9, "2ea479162f4b04636e53eeb2efe4a4aa16ab8cb2bb050b926d57f513a05147b3"),
    ("full.cfg", 8e9, "f9987a0270db25e7c143d5ae406c8b55c52496409d662e3998464185f51066b8"),
]


@pytest.mark.parametrize("config, r_max, sha256", CAPACITY_PINS)
def test_capacity_matrix_reproduces_pinned_bits(config, r_max, sha256):
    base = m.ScenarioConfig.from_config_file(CONFIGS / config)
    cfg = replace(base, r_max_bps=r_max, seed=harness.derive_seed(base.seed, 0, r_max))
    cm = m.build_capacity_matrix(m.sample_scenario(cfg), cfg)
    assert hashlib.sha256(cm.tobytes()).hexdigest() == sha256


def test_capacity_matrix_perfect_alignment_dominates_perturbed():
    cfg = m.ScenarioConfig(n_bs=2, n_ue=3, sigma_aoa_deg=0.0, sigma_aod_deg=0.0, seed=9)
    real = m.sample_scenario(cfg)
    aligned = m.build_capacity_matrix(real, cfg)
    rng = np.random.default_rng(4)
    for _ in range(5):
        bumped = m.ScenarioRealization(
            bs_positions=real.bs_positions,
            ue_positions=real.ue_positions,
            rate_req=real.rate_req,
            true_aoa=real.true_aoa,
            true_aod=real.true_aod,
            est_aoa=real.true_aoa + rng.normal(0, 0.1, real.true_aoa.shape),
            est_aod=real.true_aod + rng.normal(0, 0.1, real.true_aod.shape),
            path_gain=real.path_gain,
        )
        perturbed = m.build_capacity_matrix(bumped, cfg)
        assert np.all(aligned >= perturbed - 1e-6)


def test_capacity_matrix_shares_path_gain_within_device_pair():
    cfg = m.ScenarioConfig(n_bs=2, n_ue=2, seed=31)
    real = m.sample_scenario(cfg)
    cm = m.build_capacity_matrix(real, cfg)
    # Invert each entry through the known beam gains: the implied path
    # gain must be constant across the chain pairs of a device pair.
    g_ue = m.beamforming_gain(real.est_aoa, real.true_aoa, cfg.n_ue_ant)
    g_bs = m.beamforming_gain(real.est_aod, real.true_aod, cfg.n_bs_ant)
    p_mw = 10 ** (cfg.tx_power_dbm / 10)
    n0 = 10 ** (cfg.noise_psd_dbm_hz / 10)
    snr = 2 ** (cm / cfg.bandwidth_hz) - 1
    implied = snr * cfg.bandwidth_hz * n0 * cfg.n_bs_rf**2 / (
        p_mw * cfg.n_ue_ant * cfg.n_bs_ant * g_ue * g_bs
    )
    for u in range(cfg.n_ue):
        for b in range(cfg.n_bs):
            block = implied[
                u * cfg.n_ue_rf : (u + 1) * cfg.n_ue_rf,
                b * cfg.n_bs_rf : (b + 1) * cfg.n_bs_rf,
            ]
            np.testing.assert_allclose(block, real.path_gain[u, b], rtol=1e-9)


def test_capacity_matrix_rejects_mismatched_config():
    cfg = m.ScenarioConfig(n_bs=2, n_ue=2, seed=1)
    real = m.sample_scenario(cfg)
    with pytest.raises(ValueError):
        m.build_capacity_matrix(real, m.ScenarioConfig(n_bs=3, n_ue=2))


def test_capacity_matrix_rejects_negative():
    cfg = m.ScenarioConfig(n_bs=1, n_ue=1, n_bs_rf=1, n_ue_rf=1)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="capacities must be finite and >= 0"):
            m.instance_from_capacity(np.array([[bad]]), np.array([1e9]), cfg)
