"""Acceptance gate: nine criteria, one pass/fail line each.

Each test prints "[criterion N] <name>: PASS|FAIL" to the real stdout so the
verdicts are visible even under pytest capture, then asserts.
"""
import json
import sys
from time import perf_counter

import numpy as np

from conftest import (
    decoherent_fixture,
    haar_basis,
    non_decoherent_fixture,
    random_model,
    random_partition_classes,
    random_state,
)
from ephist import (
    BetSpec,
    CompositeSystem,
    FineGrainedSpec,
    HistorySet,
    NotDecoherent,
    Partition,
    all_extended_probabilities,
    binned_extended_probabilities,
    class_sums,
    build_history_set,
    build_state,
    coarse_decoherence_functional,
    coarse_extended_probabilities,
    construct_records,
    dec_measure,
    decoherence_functional,
    default_config,
    dutch_book_gains,
    extended_density,
    fundamental_distribution,
    gain_report,
    group_slots,
    load_model,
    product_rule_report,
    projector_set_from_basis,
    self_convergence,
    three_box_report,
    verify_strong_records,
)
from ephist.cli import run_command
from ephist.twoslit import Y_RANGE
from test_cli import MODELS

NINTH = 1.0 / 9.0


def _verdict(number, name, ok):
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {word}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} ({name}) failed"


def _run(number, name, fn):
    try:
        ok = bool(fn())
    except Exception:
        _verdict(number, name, False)
        raise
    _verdict(number, name, ok)


def test_criterion_1_three_box_exactness():
    def fn():
        t0 = perf_counter()
        rep = three_box_report(tol=1e-10)
        a, b, c = rep.coarse
        checks = [
            np.allclose(rep.sector_eps, (NINTH, NINTH, -NINTH), rtol=0, atol=1e-12),
            np.allclose(rep.conditionals, (1.0, 1.0, -1.0), rtol=0, atol=1e-12),
            np.allclose(a.conditional_pair, (1.0, 0.0), rtol=0, atol=1e-12),
            np.allclose(b.conditional_pair, (1.0, 0.0), rtol=0, atol=1e-12),
            np.allclose(c.conditional_pair, (-1.0, 2.0), rtol=0, atol=1e-12),
            a.decoherence.medium_decoherent,
            b.decoherence.medium_decoherent,
            abs(rep.c_set_cross_magnitude - 2.0 * NINTH) <= 1e-12,
            perf_counter() - t0 < 1.0,
        ]
        return all(checks)

    _run(1, "three-box exactness", fn)


def test_criterion_2_two_slit_negativity_and_binning():
    def fn():
        t0 = perf_counter()
        cfg = default_config()                         # k=1, D=d=60, kDelta=5
        grid = np.linspace(Y_RANGE[0], Y_RANGE[1], 4001)
        density_min = float(np.min(extended_density(grid)))
        u5, l5 = binned_extended_probabilities(cfg)
        u20, l20 = binned_extended_probabilities(default_config(k_delta=20.0))
        checks = [
            density_min < 0.0,
            (u5 < 0.0).any() or (l5 < 0.0).any(),
            (u20 > 0.0).all() and (l20 > 0.0).all(),
            self_convergence(cfg, 128, 512) < 1e-10,
            perf_counter() - t0 < 5.0,
        ]
        return all(checks)

    _run(2, "two-slit negativity and binning", fn)


def test_criterion_3_sum_rules_exact():
    def fn():
        rng = np.random.default_rng(3)
        worst_norm = worst_add = 0.0
        for _ in range(200):
            psi, hs = random_model(rng)
            eps = all_extended_probabilities(hs, psi)
            worst_norm = max(worst_norm, abs(eps.sum() - 1.0))
            part = Partition(hs.size, random_partition_classes(rng, hs.size))
            coarse = coarse_extended_probabilities(hs, part, psi)
            worst_add = max(worst_add,
                            float(np.max(np.abs(coarse - class_sums(eps, part)))))
        return worst_norm <= 1e-12 and worst_add <= 1e-12

    _run(3, "sum rules exact over 200 random models", fn)


def test_criterion_4_dec_monotonicity():
    def fn():
        rng = np.random.default_rng(4)
        ok = True
        for _ in range(200):
            psi, hs = random_model(rng)
            fine = decoherence_functional(hs, psi).functional
            part = Partition(hs.size, random_partition_classes(rng, hs.size))
            ok &= dec_measure(coarse_decoherence_functional(fine, part)) \
                <= dec_measure(fine) + 1e-12
        for _ in range(40):
            psi, hs = decoherent_fixture(rng)
            fine = decoherence_functional(hs, psi).functional
            for _ in range(5):
                part = Partition(hs.size, random_partition_classes(rng, hs.size))
                ok &= dec_measure(coarse_decoherence_functional(fine, part)) <= 1e-12
        return ok

    _run(4, "dec non-increasing under coarse graining", fn)


def test_criterion_5_records_iff_decoherence():
    def fn():
        rng = np.random.default_rng(5)
        ok = True
        for _ in range(100):
            psi, hs = decoherent_fixture(rng)
            report = decoherence_functional(hs, psi)
            ok &= verify_strong_records(report, construct_records(report)) <= 1e-9
        for _ in range(100):
            psi, hs = non_decoherent_fixture(rng)     # max off-diag >= 1e-3
            try:
                construct_records(decoherence_functional(hs, psi))
                ok = False
            except NotDecoherent:
                pass
        return ok

    _run(5, "records constructible iff decoherent", fn)


def test_criterion_6_product_rule():
    def fn():
        rng = np.random.default_rng(6)
        ok = True
        for _ in range(20):
            f1 = decoherent_fixture(rng, d=3, k=2)
            f2 = decoherent_fixture(rng, d=3, k=2)
            rep = product_rule_report(CompositeSystem((f1, f2)))
            ok &= rep.max_violation <= 1e-12
        docs = [load_model(MODELS / name) for name in ("qubit_a.model", "qubit_b.model")]
        pinned = product_rule_report(CompositeSystem(
            tuple((build_state(doc), build_history_set(doc)) for doc in docs)))
        return ok and pinned.max_violation >= 0.01

    _run(6, "product rule holds iff recorded", fn)


def test_criterion_7_fine_grained_oracle():
    def fn():
        rng = np.random.default_rng(7)
        max_n = {2: 10, 3: 6, 4: 5}                    # keeps d**n <= 1024
        worst = 0.0
        for _ in range(30):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, max_n[d] + 1))
            slots = tuple(projector_set_from_basis(haar_basis(rng, d), t + 1.0)
                          for t in range(n))
            spec = FineGrainedSpec(random_state(rng, d), HistorySet(slots))
            dist = fundamental_distribution(spec)
            groupings = [random_partition_classes(rng, d) for _ in range(n)]
            coarse_hs, part = group_slots(spec.history_set, groupings)
            diff = class_sums(dist.values, part) \
                - all_extended_probabilities(coarse_hs, spec.psi)
            worst = max(worst, float(np.max(np.abs(diff))))
        return worst <= 1e-12

    _run(7, "fine-grained cylinder sums match chain values", fn)


def test_criterion_8_dutch_book():
    def fn():
        rng = np.random.default_rng(8)
        ok = True
        for _ in range(200):
            p = -rng.uniform(1e-6, 1.5)
            s = -rng.uniform(1e-6, 2.0)
            rep = gain_report(BetSpec(p_a=p, s_a=s))
            ok &= rep.gain_a < 0.0 and rep.gain_not_a < 0.0
            ok &= abs(-rep.gain_a - abs(s) * (1.0 + abs(p))) <= 1e-14
        for _ in range(200):
            p = rng.uniform(0.0, 1.0)
            s = rng.uniform(-2.0, 2.0)
            g_a, g_not_a = dutch_book_gains(BetSpec(p_a=p, s_a=s))
            scale = max(1.0, abs(s))
            ok &= not (g_a < -1e-12 * scale and g_not_a < -1e-12 * scale)
        return ok

    _run(8, "dutch book exactly for improper prices", fn)


def test_criterion_9_cli_determinism(tmp_path):
    def fn():
        ok = True
        for argv in (["threebox"], ["dutchbook", "--seed", "11"]):
            outs = []
            for i in range(3):
                out = tmp_path / f"{argv[0]}{i}"
                ok &= run_command([*argv, "--out", str(out)]) == 0
                outs.append(out)
            names = sorted(p.name for p in outs[0].iterdir())
            for other in outs[1:]:
                ok &= sorted(p.name for p in other.iterdir()) == names
                ok &= all((outs[0] / n).read_bytes() == (other / n).read_bytes()
                          for n in names)
            manifest = json.loads((outs[0] / "manifest.json").read_text())
            ok &= manifest["outputs"] == [n for n in names if n != "manifest.json"]
        return ok

    _run(9, "CLI runs byte-identical across 3 repeats", fn)
