"""Shared random-model builders. Every test seeds its own Generator so
the suite stays reproducible run to run. The random-model generators are
the ones scripts/decoherence_experiments.py defines, so the experiments
and the tests draw the same models from the same seed."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ephist import (
    HistorySet,
    Projector,
    ProjectorSet,
    branch_matrix,
    decoherence_functional,
)
from oracles import flatten_index, unflatten_index

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from decoherence_experiments import (  # noqa: E402
    haar_basis,
    random_model,
    random_slot,
    random_state,
)

# Parts of functional entries: exact zeros of both signs and repeated values
# (tied magnitudes) next to finite values from about 1e-300 to 1e300.
FLOAT_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25]),
                        st.floats(-1e300, 1e300, allow_subnormal=False))


def random_partition_classes(rng, m):
    k = int(rng.integers(1, m + 1))
    assign = rng.integers(0, k, size=m)
    return tuple(tuple(int(i) for i in np.flatnonzero(assign == c))
                 for c in range(k) if (assign == c).any())


def slot_grouping_classes(shape, groupings):
    """Loop oracle for slot-wise coarse graining: each fine flat index is
    listed under the merged flat index its grouped components map to."""
    group_of = [{i: k for k, g in enumerate(groups) for i in g} for groups in groupings]
    merged_shape = [len(groups) for groups in groupings]
    classes = [[] for _ in range(int(np.prod(merged_shape)))]
    for flat in range(int(np.prod(shape))):
        comps = unflatten_index(flat, shape)
        classes[flatten_index([g[c] for g, c in zip(group_of, comps)], merged_shape)].append(flat)
    return tuple(tuple(c) for c in classes)


def decoherent_fixture(rng, d=None, k=None):
    """Exactly medium-decoherent two-slot model.

    Slot 1 is a random projector set; its branches are orthogonal
    (single-slot chains always are), so a second slot built from the
    normalized branch directions plus their complement records slot 1
    and every cross term vanishes identically.
    """
    d = int(d or rng.integers(3, 7))
    psi = random_state(rng, d)
    slot1 = random_slot(rng, d, 1.0, k=k or rng.integers(2, d))
    b = branch_matrix(HistorySet((slot1,)), psi)
    norms = np.linalg.norm(b, axis=0)
    members = [
        Projector(np.outer(b[:, i] / n, (b[:, i] / n).conj()), label=f"r{i}")
        for i, n in enumerate(norms)
    ]
    comp = np.eye(d) - sum(m.entries for m in members)
    members.append(Projector(comp, label="rest"))
    hs = HistorySet((slot1, ProjectorSet(tuple(members), time=2.0)))
    return psi, hs


def diagonal_fixture(rng, d=4, n=3):
    """Slots sharing one eigenbasis: chains are exclusive projectors, so
    the functional is exactly diagonal for every state."""
    basis = haar_basis(rng, d)
    psi = random_state(rng, d)
    slots = []
    for t in range(n):
        k = int(rng.integers(2, d + 1))
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        members = []
        for gi, g in enumerate(np.split(rng.permutation(d), cuts)):
            p = sum(np.outer(basis[i], basis[i].conj()) for i in g)
            members.append(Projector(p, label=f"t{t}g{gi}"))
        slots.append(ProjectorSet(tuple(members), time=float(t + 1)))
    return psi, HistorySet(tuple(slots))


def non_decoherent_fixture(rng, threshold=1e-3, d_max=6, n_max=3):
    """Rejection-sample a model whose worst cross term is >= threshold."""
    while True:
        psi, hs = random_model(rng, d_max=d_max, n_max=n_max)
        if hs.size < 2:
            continue
        report = decoherence_functional(hs, psi)
        if report.max_offdiagonal >= threshold:
            return psi, hs


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def perfbench_gen():
    """perfbench/gen.py, the benchmark's model generator, imported as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen   # its dataclass resolves annotations through sys.modules
    spec.loader.exec_module(gen)
    return gen
