"""Two-slit arrival example with an extended density over screen bins.

One geometry: slits at y = +-d/2 (d = 60) a distance D = 60 from the
screen, k = 1 (lengths in units of 1/k), screen window (-80, 80). The
amplitudes are psi_s(y) = e^{ikS_s}/S_s with S_s the slit-to-point path
length. The extended density for "arrived in dy about y AND went
through slit U" keeps the interference cross term:

    density(y, U) = |psi_U|^2 + Re[conj(psi_L) psi_U]

The two slit densities sum to the ordinary arrival density |psi_U+psi_L|^2,
but each one can go negative where the cross term is deep. Binned values
are Simpson integrals; with wide enough bins every bin is nonnegative,
so the bin width k*Delta is the example's one setting.

Fringes widen beyond |y| = sqrt(D^2 + d^2/4) (about 67), where the
path-length difference saturates, so those are the negative patches
that survive binning; the window includes them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvariantViolation

__all__ = ["BINS_CAP", "SWEEP_K_DELTAS", "SweepRow", "TwoSlitConfig", "amplitude",
           "arrival_density", "binned_extended_probabilities", "deepest_fringe_location",
           "default_config", "delta_sweep", "extended_density", "interference_integrals",
           "path_length", "self_convergence"]

DEFAULT_PANELS = 128
BINS_CAP = 4096          # screen bins; each one costs a Simpson integral per slit
SWEEP_K_DELTAS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
K = 1.0
SLIT_SEPARATION = 60.0   # d
SCREEN_DISTANCE = 60.0   # D
Y_RANGE = (-80.0, 80.0)


@dataclass(frozen=True)
class TwoSlitConfig:
    """The screen window Y_RANGE cut into equal bins."""

    bins: int = 32

    def __post_init__(self):
        if self.bins < 1:
            raise InvariantViolation("positive-bins", self.bins)
        if self.bins > BINS_CAP:
            raise CapExceeded("two-slit bin count", self.bins, BINS_CAP)

    @property
    def k_delta(self) -> float:
        """Bin width in phase units; the resolution knob."""
        return K * ((Y_RANGE[1] - Y_RANGE[0]) / self.bins)

    def bin_edges(self) -> np.ndarray:
        return np.linspace(Y_RANGE[0], Y_RANGE[1], self.bins + 1)


def default_config(k_delta: float = 5.0) -> TwoSlitConfig:
    """The bins of width k_delta (in units of 1/k), which must divide the window's 160."""
    width = Y_RANGE[1] - Y_RANGE[0]
    delta = k_delta / K
    ratio = width / delta if 0.0 < delta < math.inf else 0.0
    bins = round(ratio) if ratio < math.inf else 0   # a subnormal delta overflows ratio
    if bins < 1 or abs(bins * delta - width) > 1e-9 * width:
        raise InvariantViolation(
            "bin-tiling", abs(bins * delta - width),
            f"k_delta={k_delta} does not tile a window of width {width}")
    return TwoSlitConfig(bins=bins)


def _slit(slit: str) -> tuple[float, str]:
    """(sign, other slit): +1 for the upper slit at +d/2, -1 for the lower at -d/2."""
    if slit not in ("U", "L"):
        raise InvariantViolation("slit-name", 0.0, f"unknown slit {slit!r}")
    return (1.0, "L") if slit == "U" else (-1.0, "U")


def path_length(y, slit: str):
    """Distance from slit "U" (at +d/2) or "L" (at -d/2) to screen point y."""
    y = np.asarray(y, dtype=float)
    # d/2 - (-1)*y is bitwise d/2 + y, so both slits share one expression
    return np.sqrt((SLIT_SEPARATION / 2.0 - _slit(slit)[0] * y) ** 2 + SCREEN_DISTANCE ** 2)


def amplitude(y, slit: str):
    s = path_length(y, slit)
    return np.exp(1j * K * s) / s


def extended_density(y, slit: str = "U"):
    """Closed-form density(y, slit); can be negative near deep fringes."""
    sign, other_slit = _slit(slit)
    own = path_length(y, slit)
    other = path_length(y, other_slit)
    # k (S_L - S_U) for either slit; negating a difference is exact
    phase = K * (sign * (other - own))
    return (1.0 / own) * (1.0 / own + np.cos(phase) / other)


def arrival_density(y):
    """|psi_U + psi_L|^2; the two extended densities sum to this."""
    return np.abs(amplitude(y, "U") + amplitude(y, "L")) ** 2


def _simpson_nodes_weights(lo: float, hi: float, panels: int):
    # one panel = one parabola over two subintervals
    if panels < 1:
        raise InvariantViolation("positive-panels", float(panels))
    if panels % 2 != 0:
        raise InvariantViolation("even-panels", float(panels),
                                 "panel count per bin must be even")
    n_sub = 2 * panels
    nodes = np.linspace(lo, hi, n_sub + 1)
    h = (hi - lo) / n_sub
    weights = np.full(n_sub + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return nodes, weights * (h / 3.0)


def _bin_integrals(cfg: TwoSlitConfig, panels: int, *densities) -> tuple[np.ndarray, ...]:
    """Simpson integral of each density over every bin; one array per density.
    Each bin has its own weights @ values: one matrix product rounds differently."""
    edges = cfg.bin_edges()
    sums = [[] for _ in densities]
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes, weights = _simpson_nodes_weights(lo, hi, panels)
        for out, density in zip(sums, densities):
            out.append(weights @ density(nodes))
    return tuple(np.array(values) for values in sums)


def binned_extended_probabilities(cfg: TwoSlitConfig, panels: int = DEFAULT_PANELS):
    """(upper, lower): each slit's extended density integrated over every bin.
    Not normalized: only relative sizes and signs carry meaning."""
    return _bin_integrals(cfg, panels, lambda y: extended_density(y, "U"),
                          lambda y: extended_density(y, "L"))


def interference_integrals(cfg: TwoSlitConfig, panels: int = DEFAULT_PANELS) -> np.ndarray:
    """Integral of Re[conj(psi_L) psi_U] (the cross term) over every bin."""
    return _bin_integrals(
        cfg, panels, lambda y: np.real(np.conj(amplitude(y, "L")) * amplitude(y, "U")))[0]


@dataclass(frozen=True)
class SweepRow:
    k_delta: float
    bins: int
    min_upper: float
    min_lower: float
    negative_upper: tuple[int, ...]
    negative_lower: tuple[int, ...]
    max_cross_ratio: float


def delta_sweep(panels: int = DEFAULT_PANELS) -> tuple[SweepRow, ...]:
    """Sweep of SWEEP_K_DELTAS: which bin widths still show negative bins.

    max_cross_ratio is the largest |cross-term integral| over the mean
    absolute bin mass, a scale-free size of the interference.
    """
    rows = []
    for kd in SWEEP_K_DELTAS:
        cfg = default_config(k_delta=kd)
        upper, lower = binned_extended_probabilities(cfg, panels)
        cross = interference_integrals(cfg, panels)
        scale = (np.abs(upper).sum() + np.abs(lower).sum()) / (2 * cfg.bins)
        rows.append(SweepRow(
            k_delta=kd, bins=cfg.bins,
            min_upper=float(upper.min()), min_lower=float(lower.min()),
            negative_upper=tuple(int(i) for i in np.flatnonzero(upper < 0.0)),
            negative_lower=tuple(int(i) for i in np.flatnonzero(lower < 0.0)),
            max_cross_ratio=float(np.abs(cross).max() / scale),
        ))
    return tuple(rows)


def self_convergence(cfg: TwoSlitConfig, coarse_panels: int = DEFAULT_PANELS,
                     fine_panels: int = 4 * DEFAULT_PANELS) -> float:
    """Mass-relative quadrature check: refine the rule, see what moves.

    Returns max |p_fine - p_coarse| over all bins of both slits, divided
    by the total absolute bin mass. Individual bins pass through zero by
    design, so a per-bin relative error is ill-posed; mass-relative is
    the scale-free measure for unnormalized bins.
    """
    cu, cl = binned_extended_probabilities(cfg, coarse_panels)
    fu, fl = binned_extended_probabilities(cfg, fine_panels)
    mass = np.abs(fu).sum() + np.abs(fl).sum()
    shift = max(np.abs(fu - cu).max(), np.abs(fl - cl).max())
    return float(shift / mass)


def deepest_fringe_location() -> float:
    """|y| where the path-length difference saturates (deepest fringes)."""
    return math.sqrt(SCREEN_DISTANCE ** 2 + SLIT_SEPARATION ** 2 / 4.0)
