"""Random-model experiments: sum rules, coarse-graining monotonicity,
and greedy decoherence search statistics.

Generates random (state, history set) pairs at small dimension, checks
the exact identities hold to near machine precision, and reports how
often the greedy merge finds a nontrivial decoherent coarse graining.
The random-model generators here are the ones the test suite draws from.
"""
import argparse

import numpy as np

from ephist import (
    HistorySet,
    Partition,
    Projector,
    ProjectorSet,
    StateVector,
    all_extended_probabilities,
    coarse_decoherence_functional,
    dec_measure,
    decoherence_functional,
    greedy_decohering_search,
)


def haar_basis(rng, d):
    """Rows are an orthonormal basis, Haar-distributed."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


def random_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return StateVector(v / np.linalg.norm(v))


def random_slot(rng, d, time, k=None):
    """Random exhaustive projector set: a Haar basis split into k groups
    (k drawn from 2..d when not given)."""
    basis = haar_basis(rng, d)
    k = int(k or rng.integers(2, d + 1))
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    members = []
    for gi, g in enumerate(np.split(np.arange(d), cuts)):
        p = sum(np.outer(basis[i], basis[i].conj()) for i in g)
        members.append(Projector(p, label=f"g{gi}"))
    return ProjectorSet(tuple(members), time=float(time))


def random_model(rng, d_max=6, n_max=3):
    d = int(rng.integers(2, d_max + 1))
    n = int(rng.integers(1, n_max + 1))
    psi = random_state(rng, d)
    hs = HistorySet(tuple(random_slot(rng, d, t + 1.0) for t in range(n)))
    return psi, hs


def random_partition(rng, m):
    k = int(rng.integers(1, m + 1))
    assign = rng.integers(0, k, size=m)
    classes = [tuple(np.flatnonzero(assign == c)) for c in range(k) if (assign == c).any()]
    return Partition(m, tuple(classes))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    worst_sum = 0.0
    worst_mono = -np.inf
    greedy_nontrivial = 0
    for _ in range(args.trials):
        psi, hs = random_model(rng)
        ep = all_extended_probabilities(hs, psi)
        worst_sum = max(worst_sum, abs(ep.sum() - 1.0))

        rep = decoherence_functional(hs, psi)
        part = random_partition(rng, hs.size)
        coarse = coarse_decoherence_functional(rep.functional, part)
        worst_mono = max(worst_mono, dec_measure(coarse) - rep.dec)

        g = greedy_decohering_search(hs, psi, target_tol=1e-8)
        if g.succeeded and g.partition.size > 1:
            greedy_nontrivial += 1

    print(f"trials: {args.trials}")
    print(f"worst |sum(ep) - 1|: {worst_sum:.3e}")
    print(f"worst dec(coarse) - dec(fine) (should be <= ~1e-12): {worst_mono:.3e}")
    print(f"greedy found a nontrivial decoherent coarse graining in "
          f"{greedy_nontrivial}/{args.trials} runs")


if __name__ == "__main__":
    main()
