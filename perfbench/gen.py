"""Seeded input generator for the benchmark (numpy only).

Every workload's inputs come from one ``numpy.random.Generator`` seeded
with the benchmark's ``--seed``. The generator keeps the matrices it
draws (state, Hamiltonian, Schrodinger-picture projectors) in
``ModelSpec`` objects for the reference checks, and hands the program
only the model text written from them. Sizes never depend on the seed,
so every seed asks the program for the same amount of work.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (d, slot member counts) per CLI workload; m is the product of the counts.
DECOHERE_SHAPE = (16, (16, 8, 4))   # m = 512, Hamiltonian evolution
GREEDY_SHAPE = (16, (12, 8))        # m = 96, Hamiltonian evolution
RECORDS_SHAPE = (32, (8, 8, 6))     # m = 384, zero evolution, one shared basis
SWEEP_MODELS = 400                  # d = 2..6, 1..3 slots, 2..3 members each


@dataclass(frozen=True)
class ModelSpec:
    """A model as the generator drew it; ``text`` is what the program sees."""

    psi: np.ndarray                      # (d,) unit state
    hamiltonian: np.ndarray | None       # (d, d) Hermitian, or None for zero evolution
    times: tuple[float, ...]
    slots: tuple[tuple[np.ndarray, ...], ...]   # Schrodinger-picture members per slot
    groups: tuple[tuple[tuple[int, ...], ...], ...]   # basis-vector indices per member
    text: str

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.slots)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def haar_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    """Rows form a Haar-distributed orthonormal basis of C^d."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return (q * (np.diag(r) / np.abs(np.diag(r)))).T


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_hamiltonian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / (2.0 * np.sqrt(d))


def random_groups(rng: np.random.Generator, d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Split 0..d-1 into k non-empty groups of near-equal size, randomly assigned."""
    perm = rng.permutation(d)
    return tuple(tuple(sorted(int(i) for i in g)) for g in np.array_split(perm, k))


def group_projectors(basis: np.ndarray, groups) -> tuple[np.ndarray, ...]:
    return tuple(basis[list(g)].T @ basis[list(g)].conj() for g in groups)


def _num(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _vec(values) -> str:
    return "[" + ",".join(_num(z) for z in values) + "]"


def _mat(rows) -> str:
    return "[" + ",".join(_vec(r) for r in rows) + "]"


def model_text(psi, hamiltonian, times, slots) -> str:
    lines = [f"dim {psi.shape[0]}", f"state {_vec(psi)}"]
    lines.append("evolution zero" if hamiltonian is None
                 else f"evolution hamiltonian {_mat(hamiltonian)}")
    for s, (t, members) in enumerate(zip(times, slots)):
        lines.append(f"slot {t!r} s{s}")
        lines.extend(f"member g{k} matrix {_mat(p)}" for k, p in enumerate(members))
    return "\n".join(lines) + "\n"


def make_model(rng, d: int, counts, hamiltonian: bool, shared_basis: bool = False) -> ModelSpec:
    psi = random_state(rng, d)
    h = random_hamiltonian(rng, d) if hamiltonian else None
    shared = haar_basis(rng, d) if shared_basis else None
    times = tuple(float(t + 1) for t in range(len(counts)))
    slots, groups = [], []
    for k in counts:
        basis = shared if shared_basis else haar_basis(rng, d)
        g = random_groups(rng, d, k)
        groups.append(g)
        slots.append(group_projectors(basis, g))
    return ModelSpec(psi, h, times, tuple(slots), tuple(groups),
                     model_text(psi, h, times, slots))


def sweep_shape(i: int) -> tuple[int, tuple[int, ...]]:
    """Fixed (d, member counts) of model i in the sweep batch, whatever the seed."""
    d = 2 + i % 5
    n = 1 + (i // 5) % 3
    counts = tuple(2 + (i // 15 + s) % 2 if d > 2 else 2 for s in range(n))
    return d, counts


def sweep_partition(m: int) -> tuple[tuple[int, ...], ...]:
    """The fixed coarse graining of the sweep: neighbouring flat indices in pairs."""
    return tuple(tuple(range(a, min(a + 2, m))) for a in range(0, m, 2))


WORKLOADS = ("decohere-large", "greedy-search", "records-settle", "model-sweep")


def generate(workload: str, seed: int) -> list[ModelSpec]:
    """The workload's models; the seed stream is salted by the workload's position."""
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])
    if workload == "decohere-large":
        return [make_model(rng, *DECOHERE_SHAPE, hamiltonian=True)]
    if workload == "greedy-search":
        return [make_model(rng, *GREEDY_SHAPE, hamiltonian=True)]
    if workload == "records-settle":
        return [make_model(rng, *RECORDS_SHAPE, hamiltonian=False, shared_basis=True)]
    return [make_model(rng, *sweep_shape(i), hamiltonian=True) for i in range(SWEEP_MODELS)]
