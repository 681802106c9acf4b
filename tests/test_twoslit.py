"""Two-slit extended densities, Simpson binning, resolution sweep."""
from dataclasses import replace

import numpy as np
import pytest

from ephist import (
    BINS_CAP,
    CapExceeded,
    InvariantViolation,
    TwoSlitConfig,
    amplitude,
    arrival_density,
    binned_extended_probabilities,
    deepest_fringe_location,
    default_config,
    delta_sweep,
    extended_density,
    interference_integrals,
    path_length,
    self_convergence,
)
from ephist.twoslit import SCREEN_DISTANCE, SLIT_SEPARATION, Y_RANGE, _simpson_nodes_weights
from oracles import extended_density_from_amplitudes


# -------------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(InvariantViolation):
        TwoSlitConfig(bins=0)
    assert TwoSlitConfig(bins=BINS_CAP).bins == BINS_CAP
    for bins in (BINS_CAP + 1, 100_000_000_000, 10 ** 400):
        with pytest.raises(CapExceeded) as exc:
            TwoSlitConfig(bins=bins)
        assert exc.value.exit_status == 5
    with pytest.raises(InvariantViolation):
        TwoSlitConfig(bins=-10 ** 400)      # magnitude beyond float range


def test_default_config_tiling():
    assert default_config(k_delta=5.0).bins == 32
    assert default_config(k_delta=20.0).bins == 8
    assert default_config(k_delta=1.0).bins == 160
    for bad in (7.0, np.nan, np.inf, -5.0, 1e-320):   # 7 does not divide 160; 160/1e-320 is inf
        with pytest.raises(InvariantViolation) as exc:
            default_config(k_delta=bad)
        assert exc.value.name == "bin-tiling"


def test_config_derived_quantities():
    cfg = default_config(k_delta=5.0)
    assert cfg.k_delta == 5.0
    edges = cfg.bin_edges()
    assert len(edges) == cfg.bins + 1
    assert edges[0] == Y_RANGE[0] and edges[-1] == Y_RANGE[1]

    rebinned = replace(cfg, bins=8)
    assert rebinned.bins == 8
    assert rebinned.k_delta == 20.0


# ------------------------------------------------------------------ densities

def test_path_lengths_keep_their_closed_forms():
    """The signed path length is bitwise the per-slit formula it replaced."""
    d, D = SLIT_SEPARATION, SCREEN_DISTANCE
    y = np.linspace(-80.0, 80.0, 401)
    assert np.array_equal(path_length(y, "U"), np.sqrt((d / 2.0 - y) ** 2 + D ** 2))
    assert np.array_equal(path_length(y, "L"), np.sqrt((d / 2.0 + y) ** 2 + D ** 2))
    assert np.array_equal(path_length(-y, "L"), path_length(y, "U"))


def test_density_code_paths_agree():
    y = np.linspace(-80.0, 80.0, 401)
    for slit in ("U", "L"):
        a = extended_density(y, slit)
        b = extended_density_from_amplitudes(y, slit)
        assert np.abs(a - b).max() < 1e-16


def test_densities_sum_to_arrival():
    y = np.linspace(-80.0, 80.0, 401)
    total = extended_density(y, "U") + extended_density(y, "L")
    assert np.abs(total - arrival_density(y)).max() < 1e-16


def test_negative_bins_sit_beyond_saturation_radius():
    cfg = default_config()
    y = np.linspace(-80.0, 80.0, 16001)
    assert extended_density(y, "U").min() < 0.0

    loc = deepest_fringe_location()
    assert abs(loc - np.sqrt(SCREEN_DISTANCE ** 2 + SLIT_SEPARATION ** 2 / 4.0)) < 1e-12
    # binning keeps only the widened fringes past the saturation radius
    edges = cfg.bin_edges()
    u, l = binned_extended_probabilities(cfg)
    for i in np.flatnonzero(u < 0):
        assert min(abs(edges[i]), abs(edges[i + 1])) >= loc
    for i in np.flatnonzero(l < 0):
        assert min(abs(edges[i]), abs(edges[i + 1])) >= loc


def test_unknown_slit_rejected():
    with pytest.raises(InvariantViolation):
        extended_density(0.0, "X")
    with pytest.raises(InvariantViolation):
        extended_density_from_amplitudes(0.0, "sideways")
    with pytest.raises(InvariantViolation):
        path_length(0.0, "upper")
    with pytest.raises(InvariantViolation):
        amplitude(0.0, ["U"])


# ------------------------------------------------------------------ quadrature

def test_simpson_exact_on_cubics():
    nodes, weights = _simpson_nodes_weights(0.0, 3.0, 2)
    f = nodes ** 3 - 2.0 * nodes ** 2 + 1.0
    exact = 3.0 ** 4 / 4.0 - 2.0 * 3.0 ** 3 / 3.0 + 3.0
    assert abs(weights @ f - exact) < 1e-12


def test_simpson_panel_validation():
    with pytest.raises(InvariantViolation) as exc:
        _simpson_nodes_weights(0.0, 1.0, 3)
    assert exc.value.name == "even-panels"
    with pytest.raises(InvariantViolation):
        _simpson_nodes_weights(0.0, 1.0, 0)
    with pytest.raises(InvariantViolation):
        binned_extended_probabilities(default_config(), panels=5)


def test_bin_integrals_decompose():
    """upper bin = integral of |psi_U|^2 plus the cross-term integral, and
    upper + lower = the arrival integral, all on the same Simpson nodes."""
    cfg = default_config(k_delta=20.0)
    upper, lower = binned_extended_probabilities(cfg)
    cross = interference_integrals(cfg)
    assert cross.shape == (cfg.bins,)
    edges = cfg.bin_edges()
    for i in range(cfg.bins):
        nodes, weights = _simpson_nodes_weights(edges[i], edges[i + 1], 128)
        own = weights @ (np.abs(amplitude(nodes, "U")) ** 2)
        assert abs(upper[i] - (own + cross[i])) < 1e-16
        arrive = weights @ arrival_density(nodes)
        assert abs((upper[i] + lower[i]) - arrive) < 1e-16


def test_bin_integrals_build_the_edges_once(monkeypatch):
    """One edge array per call, not one per bin."""
    calls = []
    edges = TwoSlitConfig.bin_edges
    monkeypatch.setattr(TwoSlitConfig, "bin_edges", lambda cfg: calls.append(cfg) or edges(cfg))
    cfg = TwoSlitConfig(bins=16)
    assert interference_integrals(cfg, panels=2).shape == (16,)
    assert calls == [cfg]


def test_self_convergence_is_tiny():
    assert self_convergence(default_config(), 128, 512) < 1e-10


# ------------------------------------------------------------------- the knob

def test_fine_bins_show_negativity_coarse_bins_do_not():
    fine = default_config(k_delta=5.0)
    u, l = binned_extended_probabilities(fine)
    assert np.flatnonzero(u < 0).tolist() == [0]
    assert np.flatnonzero(l < 0).tolist() == [fine.bins - 1]

    coarse = default_config(k_delta=20.0)
    u, l = binned_extended_probabilities(coarse)
    assert u.min() > 0.0 and l.min() > 0.0


def test_mirror_symmetry():
    cfg = default_config(k_delta=5.0)
    u, l = binned_extended_probabilities(cfg)
    assert np.abs(u - l[::-1]).max() < 1e-15


def test_delta_sweep_negativity_fades():
    rows = delta_sweep()
    by_kd = {row.k_delta: row for row in rows}
    assert [len(by_kd[kd].negative_upper) for kd in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)] \
        == [20, 7, 1, 0, 0, 0]
    for row in rows:
        assert row.bins == round(160.0 / row.k_delta)
        assert row.max_cross_ratio > 0.0
        # mirror symmetry again, at the sweep level
        assert row.negative_lower == tuple(sorted(row.bins - 1 - i for i in row.negative_upper))
        if row.k_delta <= 5.0:
            assert row.min_upper < 0.0
        else:
            assert row.min_upper > 0.0
