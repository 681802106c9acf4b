"""Reference computations for the benchmark's correctness checks (numpy only).

Everything here starts from the generator's own matrices (``gen.ModelSpec``),
never from the program's parse of the model text, and is written without
reusing the program's algorithms where a direct formula exists: branch
vectors history by history, coarse functionals as explicit block sums,
and greedy merge scores for every pair at once.
"""
from __future__ import annotations

import itertools

import numpy as np


def heisenberg(p: np.ndarray, t: float, h: np.ndarray | None) -> np.ndarray:
    """exp(+iHt) P exp(-iHt); P itself under zero evolution."""
    if h is None:
        return p
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u.conj().T @ p @ u


def branch_matrix(spec) -> np.ndarray:
    """Column a is C_a psi; flat index a has the earliest slot varying fastest."""
    slots = [[heisenberg(p, t, spec.hamiltonian) for p in members]
             for t, members in zip(spec.times, spec.slots)]
    b = np.empty((spec.dim, spec.size), dtype=np.complex128)
    for flat, comps in enumerate(itertools.product(*(range(k) for k in reversed(spec.shape)))):
        v = spec.psi
        for slot, c in zip(slots, reversed(comps)):
            v = slot[c] @ v
        b[:, flat] = v
    return b


def functional(b: np.ndarray) -> np.ndarray:
    """D(a, b) = <psi_a|psi_b>."""
    return b.conj().T @ b


def amplitudes(spec, b: np.ndarray) -> np.ndarray:
    """<psi|C_a|psi>; the extended probability is the real part."""
    return spec.psi.conj() @ b


def dec(d: np.ndarray) -> float:
    a = np.abs(d)
    return float(a.sum() - np.trace(a))


def coarse_functional(d: np.ndarray, classes) -> np.ndarray:
    k = len(classes)
    out = np.empty((k, k), dtype=np.complex128)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            out[i, j] = d[np.ix_(list(ci), list(cj))].sum()
    return out


def merge_scores(c: np.ndarray) -> np.ndarray:
    """dec after merging classes i < j of the coarse functional c, for every pair.

    Entries on and below the diagonal are +inf. Merging i and j removes
    every off-diagonal entry in rows and columns i, j and adds back
    2 * sum_{l != i, j} |c_il + c_jl|.
    """
    k = c.shape[0]
    a = np.abs(c)
    offrow = a.sum(axis=1) - np.diag(a)
    pair_sum = np.abs(c[:, None, :] + c[None, :, :])          # [i, j, l] = |c_il + c_jl|
    i, j = np.arange(k)[:, None], np.arange(k)[None, :]
    cross = pair_sum.sum(axis=2) - pair_sum[i, j, i] - pair_sum[i, j, j]
    scores = dec(c) - 2.0 * (offrow[:, None] + offrow[None, :]) + 2.0 * a + 2.0 * cross
    scores[np.tril_indices(k)] = np.inf
    return scores


def merge(c: np.ndarray, classes: list, i: int, j: int):
    """Merge classes i < j the way the program orders them: j's slot disappears."""
    keep = [x for x in range(c.shape[0]) if x != j]
    s = np.zeros((c.shape[0], len(keep)))
    for pos, x in enumerate(keep):
        s[x, pos] = 1.0
    s[j, keep.index(i)] = 1.0
    merged = s.T @ c @ s
    new_classes = [tuple(sorted(classes[i] + classes[j])) if x == i else classes[x] for x in keep]
    return merged, new_classes


def empty_branches(groups) -> int:
    """Histories whose members share no basis vector, for slots over one basis.

    Those branches are exactly zero, whatever the state.
    """
    count = 0
    for choice in itertools.product(*groups):
        if not set.intersection(*(set(g) for g in choice)):
            count += 1
    return count
