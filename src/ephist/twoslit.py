"""Two-slit arrival example with an extended density over screen bins.

Geometry: slits at y = +-d/2 in a plane a distance D from the screen,
monochromatic point source amplitudes psi_s(y) = a e^{ikS_s}/S_s with
S_s the slit-to-point path length. The extended density for "arrived in
dy about y AND went through slit U" keeps the interference cross term:

    density(y, U) = |psi_U|^2 + Re[conj(psi_L) psi_U]

The two slit densities sum to the ordinary arrival density |psi_U+psi_L|^2,
but each one can go negative where the cross term is deep. Binned values
are Simpson integrals; with wide enough bins every bin is nonnegative.

Lengths are in units of 1/k when k=1. Fringes widen beyond the radius
|y| = sqrt(D^2 + d^2/4) (about 67 for d = D = 60) where the path-length
difference saturates, so those are the negative patches that survive
binning; the default window (-80, 80) is wide enough to include them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InvariantViolation

DEFAULT_PANELS = 128
BINS_CAP = 4096          # screen bins; each one costs a Simpson integral per slit
DEFAULT_Y_RANGE = (-80.0, 80.0)
SWEEP_K_DELTAS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)


@dataclass(frozen=True)
class TwoSlitConfig:
    """Slit geometry plus the screen binning."""

    k: float = 1.0
    d: float = 60.0
    D: float = 60.0
    a: complex = 1.0 + 0.0j
    y_range: tuple[float, float] = DEFAULT_Y_RANGE
    bins: int = 32

    def __post_init__(self):
        object.__setattr__(self, "y_range", (float(self.y_range[0]), float(self.y_range[1])))
        if not all(0.0 < v < math.inf for v in (self.k, self.d, self.D)):
            raise InvariantViolation("positive-geometry", 0.0, "k, d, D must be positive, finite")
        if not -math.inf < self.y_range[0] < self.y_range[1] < math.inf:
            raise InvariantViolation("ordered-range", 0.0, "y_range must be finite, increasing")
        if self.bins < 1:
            raise InvariantViolation("positive-bins", self.bins)
        if self.bins > BINS_CAP:
            raise CapExceeded("two-slit bin count", self.bins, BINS_CAP)

    @property
    def width(self) -> float:
        return self.y_range[1] - self.y_range[0]

    @property
    def bin_width(self) -> float:
        return self.width / self.bins

    @property
    def k_delta(self) -> float:
        """Bin width in phase units; the resolution knob."""
        return self.k * self.bin_width

    def bin_edges(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.bins + 1)


def default_config(k_delta: float = 5.0, k: float = 1.0,
                   y_range: tuple[float, float] = DEFAULT_Y_RANGE) -> TwoSlitConfig:
    """Standard geometry (d = D = 60) at a requested bin resolution.

    k_delta must tile the window exactly; for the default window that
    means a divisor of 160 (in units of 1/k).
    """
    width = float(y_range[1]) - float(y_range[0])
    delta = k_delta / k
    ratio = width / delta if 0.0 < delta < math.inf else 0.0
    bins = round(ratio) if ratio < math.inf else 0   # a subnormal delta overflows ratio
    if bins < 1 or abs(bins * delta - width) > 1e-9 * width:
        raise InvariantViolation(
            "bin-tiling", abs(bins * delta - width),
            f"k_delta={k_delta} does not tile a window of width {width}")
    return TwoSlitConfig(k=k, y_range=(float(y_range[0]), float(y_range[1])), bins=bins)


def _slit(slit: str) -> tuple[float, str]:
    """(sign, other slit): +1 for the upper slit at +d/2, -1 for the lower at -d/2."""
    if slit not in ("U", "L"):
        raise InvariantViolation("slit-name", 0.0, f"unknown slit {slit!r}")
    return (1.0, "L") if slit == "U" else (-1.0, "U")


def path_length(cfg: TwoSlitConfig, y, slit: str):
    """Distance from slit "U" (at +d/2) or "L" (at -d/2) to screen point y."""
    y = np.asarray(y, dtype=float)
    # d/2 - (-1)*y is bitwise d/2 + y, so both slits share one expression
    return np.sqrt((cfg.d / 2.0 - _slit(slit)[0] * y) ** 2 + cfg.D ** 2)


def amplitude(cfg: TwoSlitConfig, y, slit: str):
    s = path_length(cfg, y, slit)
    return cfg.a * np.exp(1j * cfg.k * s) / s


def extended_density(cfg: TwoSlitConfig, y, slit: str = "U"):
    """Closed-form density(y, slit); can be negative near deep fringes."""
    sign, other_slit = _slit(slit)
    own = path_length(cfg, y, slit)
    other = path_length(cfg, y, other_slit)
    mag = abs(cfg.a) ** 2
    # k (S_L - S_U) for either slit; negating a difference is exact
    phase = cfg.k * (sign * (other - own))
    return (mag / own) * (1.0 / own + np.cos(phase) / other)


def arrival_density(cfg: TwoSlitConfig, y):
    """|psi_U + psi_L|^2; the two extended densities sum to this."""
    return np.abs(amplitude(cfg, y, "U") + amplitude(cfg, y, "L")) ** 2


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


def integrate_density(cfg: TwoSlitConfig, lo: float, hi: float,
                      slit: str = "U", panels: int = DEFAULT_PANELS) -> float:
    nodes, weights = _simpson_nodes_weights(lo, hi, panels)
    return float(weights @ extended_density(cfg, nodes, slit))


def binned_extended_probabilities(cfg: TwoSlitConfig, panels: int = DEFAULT_PANELS):
    """Per-bin integrals of the two extended densities.

    Returns (upper, lower) arrays of length cfg.bins. Not normalized;
    the amplitude scale a is arbitrary, so only relative sizes and signs
    carry meaning.
    """
    edges = cfg.bin_edges()
    return tuple(np.array([integrate_density(cfg, lo, hi, slit, panels)
                           for lo, hi in zip(edges[:-1], edges[1:])])
                 for slit in ("U", "L"))


def interference_integral(cfg: TwoSlitConfig, bin_index: int,
                          panels: int = DEFAULT_PANELS) -> float:
    """Integral of Re[conj(psi_L) psi_U] over one bin (the cross term)."""
    if not 0 <= bin_index < cfg.bins:
        raise DimensionMismatch(f"bin {bin_index} out of range for {cfg.bins} bins")
    edges = cfg.bin_edges()
    nodes, weights = _simpson_nodes_weights(edges[bin_index], edges[bin_index + 1], panels)
    cross = np.real(np.conj(amplitude(cfg, nodes, "L")) * amplitude(cfg, nodes, "U"))
    return float(weights @ cross)


@dataclass(frozen=True)
class SweepRow:
    k_delta: float
    bins: int
    min_upper: float
    min_lower: float
    negative_upper: tuple[int, ...]
    negative_lower: tuple[int, ...]
    max_cross_ratio: float


def delta_sweep(k_deltas=SWEEP_K_DELTAS, k: float = 1.0,
                y_range: tuple[float, float] = DEFAULT_Y_RANGE,
                panels: int = DEFAULT_PANELS) -> tuple[SweepRow, ...]:
    """Bin-resolution sweep: which resolutions still show negative bins.

    max_cross_ratio is the largest |cross-term integral| over the mean
    absolute bin mass, a scale-free size of the interference.
    """
    rows = []
    for kd in k_deltas:
        cfg = default_config(k_delta=kd, k=k, y_range=y_range)
        upper, lower = binned_extended_probabilities(cfg, panels)
        cross = np.array([interference_integral(cfg, i, panels) for i in range(cfg.bins)])
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
    the scale-free measure that survives the arbitrary amplitude a.
    """
    cu, cl = binned_extended_probabilities(cfg, coarse_panels)
    fu, fl = binned_extended_probabilities(cfg, fine_panels)
    mass = np.abs(fu).sum() + np.abs(fl).sum()
    shift = max(np.abs(fu - cu).max(), np.abs(fl - cl).max())
    return float(shift / mass)


def deepest_fringe_location(cfg: TwoSlitConfig) -> float:
    """|y| where the path-length difference saturates (deepest fringes)."""
    return math.sqrt(cfg.D ** 2 + cfg.d ** 2 / 4.0)
