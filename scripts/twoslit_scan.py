"""Scan two-slit bin resolutions: where do negative bins survive?

Prints one row per bin width, then the quadrature self-check for the
default resolution. Negative bins die out once the bins are wide enough
to average over a fringe.
"""
import argparse

import numpy as np

from ephist import (
    binned_extended_probabilities,
    default_config,
    delta_sweep,
    deepest_fringe_location,
    self_convergence,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-delta", type=float, default=5.0)
    ap.add_argument("--panels", type=int, default=128)
    args = ap.parse_args()

    print(f"{'kDelta':>8} {'bins':>5} {'min upper':>12} {'min lower':>12} "
          f"{'neg U':>6} {'neg L':>6} {'cross ratio':>12}")
    for r in delta_sweep(panels=args.panels):
        print(f"{r.k_delta:>8.1f} {r.bins:>5d} {r.min_upper:>12.3e} {r.min_lower:>12.3e} "
              f"{len(r.negative_upper):>6d} {len(r.negative_lower):>6d} {r.max_cross_ratio:>12.3f}")

    cfg = default_config(k_delta=args.k_delta)
    upper, lower = binned_extended_probabilities(cfg, panels=args.panels)
    print(f"\nkDelta={args.k_delta}: negative upper bins {np.flatnonzero(upper < 0).tolist()}, "
          f"lower {np.flatnonzero(lower < 0).tolist()}")
    print(f"deepest fringes near |y| = {deepest_fringe_location():.2f}")
    print(f"self-convergence ({args.panels} vs {4 * args.panels} panels): "
          f"{self_convergence(cfg, args.panels, 4 * args.panels):.3e}")


if __name__ == "__main__":
    main()
