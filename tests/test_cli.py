"""End-to-end CLI runs: artifacts, exit codes, determinism."""
import hashlib
import json
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephist import (
    DEFAULT_DEC_TOL,
    ModelDocument,
    NotDecoherent,
    branch_matrix,
    build_history_set,
    build_state,
    construct_records,
    decoherence_functional,
    load_model,
    offdiagonal_offenders,
    parse_complex,
    three_box_report,
)
from ephist.cli import (
    _csv,
    _functional_csv,
    _json_chunks,
    _OutDir,
    build_parser,
    run_command,
)
from ephist.modelfile import EvolutionClause, MemberClause, SlotClause
from conftest import FLOAT_PARTS, perfbench_gen, random_model
from oracles import (
    decoherence_functional_eager,
    dump_json,
    eager_report,
    functional_csv_pending,
    not_decoherent_payload,
    offdiagonal_offenders_loop,
    offender_dicts,
    offender_pairs,
    serialize_model,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
NINTH = 1.0 / 9.0


def run(tmp_path, name, *argv):
    out = tmp_path / name
    status = run_command([*argv, "--out", str(out)])
    return status, out


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def load(out, name):
    """Parse an artifact, refusing the NaN/Infinity extensions of Python's json."""
    return json.loads((out / name).read_text(), parse_constant=_reject_constant)


def test_version_and_module_entry():
    proc = subprocess.run([sys.executable, "-m", "ephist", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ephist 0.1.0"


def test_eval(tmp_path):
    status, out = run(tmp_path, "o", "eval", "--model", str(MODELS / "threebox.model"))
    assert status == 0
    manifest = load(out, "manifest.json")
    assert manifest["command"] == "eval"
    assert manifest["outputs"] == ["histories.csv", "summary.json"]
    assert manifest["engine_version"]

    summary = load(out, "summary.json")
    assert summary["size"] == 6
    assert abs(summary["sum_ep"] - 1.0) < 1e-12
    assert abs(summary["total_negative"] - (-NINTH)) < 1e-12
    assert abs(summary["min_ep"] - (-NINTH)) < 1e-12

    lines = (out / "histories.csv").read_text().splitlines()
    assert lines[0] == "flat,label,ep,dh,dh_minus_ep"
    assert len(lines) == 7
    assert lines[1].startswith('0,"A,Phi",')   # comma-bearing labels are quoted


def test_decohere(tmp_path):
    status, out = run(tmp_path, "o", "decohere", "--model", str(MODELS / "recorded.model"))
    assert status == 0
    rep = load(out, "decoherence.json")
    assert rep["medium_decoherent"] is True
    assert rep["offenders"] == []
    assert rep["max_offdiagonal"] < 1e-12
    assert abs(sum(rep["ep"]) - 1.0) < 1e-12
    rows = (out / "functional.csv").read_text().splitlines()
    assert len(rows) == len(rep["ep"]) + 1


@pytest.fixture(scope="module")
def h1024(tmp_path_factory):
    """A non-decoherent 1024-history model: d=16, slots of 16, 16 and 4 members,
    Hamiltonian evolution, drawn by perfbench/gen.py from default_rng(1024)."""
    spec = perfbench_gen().make_model(np.random.default_rng(1024), 16, (16, 16, 4),
                                      hamiltonian=True)
    model = tmp_path_factory.mktemp("h1024") / "h1024.model"
    model.write_text(spec.text)
    return model


# sha256 of decohere's artifacts on h1024, recorded before functional.csv and
# |D| were read off Gram bands instead of the whole functional
H1024_DIGESTS = {
    "decoherence.json": "1f2fc83eec1ff57fbf6443d4eec7316653643d535efc4da7abb5d6412ef62c49",
    "functional.csv": "0c2b4060c608850522429753cbf943af19433eeef6d6f663be562ff901cad30b",
}


def test_decohere_keeps_its_bytes_at_m_1024(tmp_path, h1024):
    """functional.csv (about 48 MB) and decoherence.json (130,560 offenders) at
    m = 1024 have the digests recorded before the functional was read in bands."""
    status, out = run(tmp_path, "o", "decohere", "--model", str(h1024))
    assert status == 0
    for name, digest in H1024_DIGESTS.items():
        with open(out / name, "rb") as fh:
            assert hashlib.file_digest(fh, "sha256").hexdigest() == digest, name


def test_decohere_peaks_under_one_functional(tmp_path, h1024):
    """The whole decohere at m = 1024 peaks under one complex m x m functional
    (16 MiB): it builds none, reads dec and max_offdiagonal off a float |D|
    that is freed before functional.csv is written, and keeps the mirrored
    text as one string per 16-row band and column (the whole functional and
    one string per mirrored cell peaked at 2.68)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        status, out = run(tmp_path, "o", "decohere", "--model", str(h1024))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert status == 0
    assert load(out, "decoherence.json")["offenders"]
    assert peak < 1024 * 1024 * 16


def test_records_success(tmp_path):
    status, out = run(tmp_path, "o", "records", "--model", str(MODELS / "recorded.model"))
    assert status == 0
    rec = load(out, "records.json")
    assert rec["t_rec"] == 3.0
    assert len(rec["labels"]) == 4
    assert sum(rec["ranks"]) == 3            # completion absorbs the whole space
    assert rec["strong_max_defect"] < 1e-10
    assert rec["weak_max_defect"] < 1e-10
    assert rec["correlation"]["max_defect"] < 1e-10
    assert all(ok for _, ok in rec["correlation"]["negative_bound_ok"])


def test_records_refuses_non_decoherent(tmp_path):
    status, out = run(tmp_path, "o", "records", "--model", str(MODELS / "qubit_a.model"))
    assert status == 4
    err = load(out, "error.json")
    assert err["command"] == "records"
    assert err["code"] == "not-decoherent"
    mags = [o["magnitude"] for o in err["offenders"]]
    assert mags and mags == sorted(mags, reverse=True)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("model, status", [("recorded.model", 0), ("threebox.model", 4)])
def test_records_builds_one_branch_matrix(tmp_path, monkeypatch, model, status):
    """Deciding, building the records and the three checks read the branches
    of one report: a run that succeeds and a run refused as not decoherent
    each build the branch matrix once, counted in every module that holds it."""
    calls = []

    def counted(hs, psi):
        calls.append(hs)
        return branch_matrix(hs, psi)

    for name, module in list(sys.modules.items()):
        if name.startswith("ephist.") and vars(module).get("branch_matrix") is branch_matrix:
            monkeypatch.setattr(module, "branch_matrix", counted)
    assert run(tmp_path, "o", "records", "--model", str(MODELS / model))[0] == status
    assert len(calls) == 1


def test_coarsen_named_partition(tmp_path):
    status, out = run(tmp_path, "o", "coarsen",
                      "--model", str(MODELS / "threebox.model"), "--partition", "sector")
    assert status == 0
    rep = load(out, "coarsen.json")
    assert rep["classes"] == [[0, 1, 2], [3, 4, 5]]
    assert rep["dec_monotone"] is True
    assert np.allclose(rep["coarse_ep"], [NINTH, 8 * NINTH], atol=1e-12)
    assert rep["coarse_total_negative"] == 0.0
    assert rep["coarse_dec"] <= rep["fine_dec"] + 1e-12


def test_coarsen_literal_partition(tmp_path):
    status, out = run(tmp_path, "o", "coarsen",
                      "--model", str(MODELS / "threebox.model"),
                      "--partition", "[[0,2],[1],[3,4,5]]")
    assert status == 0
    rep = load(out, "coarsen.json")
    assert np.allclose(rep["coarse_ep"], [0.0, NINTH, 8 * NINTH], atol=1e-12)


def test_coarsen_greedy_search(tmp_path):
    status, out = run(tmp_path, "o", "coarsen", "--model", str(MODELS / "threebox.model"))
    assert status == 0
    rep = load(out, "greedy.json")
    assert rep["succeeded"] is True
    assert rep["dec"] <= 1e-8
    assert rep["trace"]                      # the fine set is not decoherent


def test_coarsen_unknown_partition(tmp_path):
    status, out = run(tmp_path, "o", "coarsen",
                      "--model", str(MODELS / "threebox.model"), "--partition", "nope")
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "unknown-partition"


@pytest.mark.parametrize("command,line,col", [
    (("coarsen", "--partition", "sector"), 28, 11),
    (("composite",), 2, 11),
])
def test_repeated_name_is_a_parse_error(tmp_path, command, line, col):
    """A second partition or composite of one name fails the run with exit 2
    and error.json alone, instead of replacing or dropping the first."""
    if command[0] == "coarsen":
        text = (MODELS / "threebox.model").read_text().rstrip("\n") + "\n"
        assert text.count("\n") == line - 1
        text += "partition sector [[0],[1,2,3,4,5]]\n"
    else:
        factors = f"{MODELS / 'qubit_a.model'} {MODELS / 'qubit_b.model'}"
        text = f"composite pair factors {factors}\ncomposite pair factors {factors}\n"
    model = tmp_path / "twice.model"
    model.write_text(text)
    status, out = run(tmp_path, "o", *command, "--model", str(model))
    assert status == 2
    assert [p.name for p in out.iterdir()] == ["error.json"]
    err = load(out, "error.json")
    assert (err["code"], err["line"], err["col"]) == ("parse-error", line, col)
    assert "already declared" in err["expected"]


def test_composite(tmp_path):
    status, out = run(tmp_path, "o", "composite", "--model", str(MODELS / "pair.model"))
    assert status == 0
    rep = load(out, "composite.json")["pair"]
    assert rep["joint_count"] == 16
    assert rep["joint_dim"] == 4
    assert abs(rep["max_violation"] - 1.0 / 16.0) < 1e-15
    assert len(rep["joint_ep"]) == 16


def test_composite_named_offenders(tmp_path):
    """A composite's name is a key of composite.json, so any name is written like any other."""
    factors = f"{MODELS / 'qubit_a.model'} {MODELS / 'qubit_b.model'}"
    model = tmp_path / "named.model"
    model.write_text(f"composite offenders factors {factors}\ncomposite pair factors {factors}\n")
    status, out = run(tmp_path, "o", "composite", "--model", str(model))
    assert status == 0
    report = load(out, "composite.json")
    assert (out / "composite.json").read_text() == dump_json(report)
    _, pair_out = run(tmp_path, "p", "composite", "--model", str(MODELS / "pair.model"))
    assert report["offenders"] == report["pair"] == load(pair_out, "composite.json")["pair"]


def test_finegrained_with_partition(tmp_path):
    status, out = run(tmp_path, "o", "finegrained",
                      "--model", str(MODELS / "threebox.model"), "--partition", "cylinders")
    assert status == 0
    summary = load(out, "summary.json")
    assert summary["shape"] == [3, 3]
    assert abs(summary["sum"] - 1.0) < 1e-12
    assert np.allclose(summary["class_sums"],
                       [NINTH, NINTH, -NINTH, 2 * NINTH, 2 * NINTH, 4 * NINTH],
                       atol=1e-12)
    lines = (out / "finegrained.csv").read_text().splitlines()
    assert lines[0] == "flat,outcome,w"
    assert len(lines) == 10
    assert lines[1].startswith("0,0;0,")


def test_finegrained_with_a_failing_partition_writes_only_the_error(tmp_path):
    """The threebox 'sector' classes cover 6 of the 9 fine outcomes: the run
    fails before its first artifact, so error.json is all it leaves."""
    status, out = run(tmp_path, "o", "finegrained",
                      "--model", str(MODELS / "threebox.model"), "--partition", "sector")
    assert status == 3
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert load(out, "error.json")["invariant"] == "covering-classes"


def test_twoslit_default(tmp_path):
    status, out = run(tmp_path, "o", "twoslit")
    assert status == 0
    summary = load(out, "summary.json")
    assert summary["bins"] == 32
    assert summary["k_delta"] == 5.0
    assert summary["negative_bins_upper"] == [0]
    assert summary["negative_bins_lower"] == [31]
    assert summary["self_convergence_128_512"] < 1e-10
    assert len((out / "bins.csv").read_text().splitlines()) == 33
    assert len((out / "curve.csv").read_text().splitlines()) == 802
    assert len((out / "sweep.csv").read_text().splitlines()) == 7


def test_twoslit_coarse_resolution(tmp_path):
    status, out = run(tmp_path, "o", "twoslit", "--kDelta", "20")
    assert status == 0
    summary = load(out, "summary.json")
    assert summary["bins"] == 8
    assert summary["negative_bins_upper"] == []
    assert summary["negative_bins_lower"] == []
    assert summary["min_upper"] > 0.0


def test_twoslit_runs_are_byte_identical(tmp_path):
    _, first = run(tmp_path, "a", "twoslit")
    _, second = run(tmp_path, "b", "twoslit")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_dutchbook_seeded(tmp_path):
    status, first = run(tmp_path, "a", "dutchbook", "--seed", "7")
    assert status == 0
    _, second = run(tmp_path, "b", "dutchbook", "--seed", "7")
    assert (first / "dutchbook.csv").read_bytes() == (second / "dutchbook.csv").read_bytes()

    summary = load(first, "summary.json")
    canon = summary["canonical"]
    assert canon["gain_a"] == -2.0 and canon["gain_not_a"] == -1.0
    assert canon["sure_loss"] is True
    assert canon["loss_if_a"] == 2.0
    assert 0 <= summary["sampled_sure_losses"] <= 20

    lines = (first / "dutchbook.csv").read_text().splitlines()
    assert len(lines) == 22                  # header + canonical + 20 samples
    assert lines[1].startswith("canonical,")


def test_threebox_command(tmp_path):
    status, out = run(tmp_path, "o", "threebox")
    assert status == 0
    rep = load(out, "threebox.json")
    assert abs(rep["p_phi"] - NINTH) < 1e-12
    assert np.allclose(rep["conditionals_given_phi"], [1.0, 1.0, -1.0], atol=1e-12)
    assert rep["greedy_sector"]["classes"] == [[0, 2], [1]]
    assert rep["coarse"][2]["medium_decoherent"] is False
    assert abs(rep["coarse"][2]["max_offdiagonal"] - 2 * NINTH) < 1e-12
    cells = [[parse_complex(c) for c in row] for row in rep["sector_functional"]]
    assert cells == three_box_report().sector_functional.tolist()


def test_threebox_makes_four_functional_calls(tmp_path, monkeypatch):
    """One fine functional serves the report, its Phi sector and the greedy
    merge; each of the three coarse box sets adds one."""
    import ephist.threebox
    calls = []
    original = ephist.threebox.decoherence_functional

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(ephist.threebox, "decoherence_functional", counted)
    status, _ = run(tmp_path, "o", "threebox")
    assert status == 0
    assert calls == [(3, 2), (2, 2), (2, 2), (2, 2)]


SLOT_MODELS = sorted(p.name for p in MODELS.glob("*.model") if load_model(p).slots)


@pytest.mark.parametrize("name", SLOT_MODELS)
def test_eval_dh_is_the_functional_diagonal(tmp_path, name):
    """eval's dh column and decohere's dh are one computation: equal bit for bit."""
    model = str(MODELS / name)
    assert run(tmp_path, "e", "eval", "--model", model)[0] == 0
    assert run(tmp_path, "d", "decohere", "--model", model)[0] == 0
    rows = (tmp_path / "e" / "histories.csv").read_text().splitlines()[1:]
    eval_dh = [float(row.rsplit(",", 3)[2]) for row in rows]
    assert eval_dh == load(tmp_path / "d", "decoherence.json")["dh"]


def test_eval_requires_model_option(tmp_path, capsys):
    status, out = run(tmp_path, "o", "eval")
    assert status == 3
    assert load(out, "error.json")["invariant"] == "missing-option"
    assert "error:" in capsys.readouterr().err


# every option some command reads, with a value it parses; --out is on all
OPTION_VALUES = {"--model": "m.model", "--tol": "1e-3", "--partition": "sector",
                 "--kDelta": "5", "--bins": "3", "--seed": "5"}
COMMAND_OPTIONS = {
    "eval": {"--model"},
    "composite": {"--model"},
    "decohere": {"--model", "--tol"},
    "records": {"--model", "--tol"},
    "coarsen": {"--model", "--tol", "--partition"},
    "finegrained": {"--model", "--partition"},
    "twoslit": {"--kDelta", "--bins"},
    "threebox": {"--tol"},
    "dutchbook": {"--seed"},
}


def test_each_command_takes_only_the_options_it_reads():
    taken = {}
    for command in COMMAND_OPTIONS:
        taken[command] = {"--out"}
        for option, value in OPTION_VALUES.items():
            try:
                build_parser().parse_args([command, option, value])
            except SystemExit:
                continue
            taken[command].add(option)
    assert taken == {command: options | {"--out"} for command, options in COMMAND_OPTIONS.items()}
    assert sum(map(len, taken.values())) == 24


@pytest.mark.parametrize("argv", [
    ["eval", "--tol", "1e-3"], ["eval", "--seed", "5"], ["eval", "--bins", "3"],
    ["twoslit", "--bins", "8", "--kDelta", "5"], ["twoslit", "--kDelta", "5", "--bins", "8"],
    ["threebox", "--model", str(MODELS / "threebox.model")],
    ["coarsen", "--model", str(MODELS / "threebox.model"), "--partition", "sector", "--tol", "1e-3"],
])
def test_options_a_command_would_ignore_are_refused(tmp_path, argv, capsys):
    """Before, these ran and wrote the ignored values into manifest.json;
    twoslit took --bins and dropped --kDelta, and coarsen --partition
    read no --tol."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "o", *argv)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()
    assert "error:" in capsys.readouterr().err


def test_eval_missing_model_file(tmp_path):
    status, out = run(tmp_path, "o", "eval", "--model", str(tmp_path / "absent.model"))
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "model-file"
    assert "cannot read" in err["message"]


def test_eval_model_without_slots(tmp_path):
    bare = tmp_path / "bare.model"
    bare.write_text("dim 2\nstate [1,0]\n")
    status, out = run(tmp_path, "o", "eval", "--model", str(bare))
    assert status == 3
    assert load(out, "error.json")["invariant"] == "missing-section"


BROKEN_FINEGRAINED = "finegrained 2.0 basis [[1,0,0],[1,1,0],[0,0,1]]\n"   # not orthogonal


def _artifacts(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.mark.parametrize("argv", [
    ["eval"], ["decohere"], ["records"], ["coarsen"], ["coarsen", "--partition", "[[0,1],[2,3]]"],
])
def test_commands_build_only_the_sections_they_read(tmp_path, argv):
    """A broken finegrained basis fails finegrained alone; the slot commands
    write the same artifacts as without that line."""
    text = (MODELS / "recorded.model").read_text()
    (tmp_path / "clean.model").write_text(text)
    (tmp_path / "broken.model").write_text(text + BROKEN_FINEGRAINED)
    outs = []
    for name in ("clean", "broken"):
        status, out = run(tmp_path, name, argv[0], "--model", str(tmp_path / f"{name}.model"),
                          *argv[1:])
        assert status == 0
        outs.append(_artifacts(out))
    assert outs[0] == outs[1] and outs[0]
    status, out = run(tmp_path, "fine", "finegrained", "--model", str(tmp_path / "broken.model"))
    assert status == 3
    assert load(out, "error.json")["invariant"] == "projector-set"


def test_model_not_utf8(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes((MODELS / "recorded.model").read_bytes().replace(b"Decoherent", b"D\xffcoherent"))
    status, out = run(tmp_path, "o", "eval", "--model", str(bad))
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "model-file"
    assert "not UTF-8 at byte offset 3" in err["message"]


def test_dutchbook_negative_seed(tmp_path):
    status, out = run(tmp_path, "o", "dutchbook", "--seed", "-1")
    assert status == 3
    assert load(out, "error.json")["invariant"] == "seed"
    assert not (out / "dutchbook.csv").exists()


DEEP = "[" * 50_000 + "0" + "]" * 50_000


def test_deep_partition_option_is_a_parse_error(tmp_path):
    status, out = run(tmp_path, "o", "coarsen", "--model", str(MODELS / "threebox.model"),
                      "--partition", DEEP)
    assert status == 2
    err = load(out, "error.json")
    assert (err["line"], err["col"], err["found"]) == (1, 1, DEEP[:40])


def test_deep_partition_line_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.model"
    deep.write_text(f"dim 2\npartition p {DEEP}\n")
    status, out = run(tmp_path, "o", "eval", "--model", str(deep))
    assert status == 2
    err = load(out, "error.json")
    assert (err["line"], err["col"], err["found"]) == (2, 13, DEEP[:40])


def test_parse_error_reported_with_position(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("dim 3\nstate [1,0]\n")
    status, out = run(tmp_path, "o", "eval", "--model", str(bad))
    assert status == 2
    err = load(out, "error.json")
    assert err["code"] == "parse-error"
    assert err["line"] == 2
    assert "3 amplitudes" in err["expected"]


# ------------------------------------------------------------ non-finite input

def test_eval_rejects_nan_state(tmp_path):
    bad = tmp_path / "nan.model"
    bad.write_text("dim 2\nstate [nan,0]\nslot 1.0 z\nmember up basis {0}\nmember dn basis {1}\n")
    status, out = run(tmp_path, "o", "eval", "--model", str(bad))
    assert status == 2
    err = load(out, "error.json")
    assert (err["line"], err["col"]) == (2, 8)


def test_error_json_with_infinite_magnitude_is_valid(tmp_path):
    huge = tmp_path / "huge.model"     # finite literals whose norm overflows
    huge.write_text("dim 2\nstate [1e200,0]\nslot 1.0 z\nmember up basis {0}\nmember dn basis {1}\n")
    status, out = run(tmp_path, "o", "eval", "--model", str(huge))
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "state-norm"
    assert err["magnitude"] == "inf"


@pytest.mark.parametrize("command", ["decohere", "records", "coarsen"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8"])
def test_bad_tolerance_rejected(tmp_path, command, tol):
    status, out = run(tmp_path, "o", command,
                      "--model", str(MODELS / "recorded.model"), f"--tol={tol}")
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "tolerance"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("k_delta", ["nan", "inf", "-5"])
def test_twoslit_rejects_bad_resolution(tmp_path, k_delta):
    status, out = run(tmp_path, "o", "twoslit", "--kDelta", k_delta)
    assert status == 3
    load(out, "error.json")


@pytest.mark.parametrize("argv", [["--kDelta", "1e-300"], ["--bins", "100000000000"]])
def test_twoslit_bin_count_capped(tmp_path, argv):
    """1e-300 tiles the window with about 1.6e302 bins; without the cap both
    runs die allocating the bin edges."""
    status, out = run(tmp_path, "o", "twoslit", *argv)
    assert status == 5
    err = load(out, "error.json")
    assert err["code"] == "cap-exceeded"
    assert err["cap"] == 4096


@pytest.mark.parametrize("argv", [
    ["twoslit", "--bins", "\u0661\u0666"],       # Arabic-Indic 16
    ["threebox", "--tol", "1_0e-11"],
    ["dutchbook", "--seed", "\u0667"],            # Arabic-Indic 7
])
def test_numeric_options_are_ascii(tmp_path, argv, capsys):
    """int() and float() take these; the options, like model numbers, do not."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "o", *argv)
    assert exc.value.code == 2
    assert "not an ASCII number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    status = run_command(["eval", "--model", str(MODELS / "threebox.model"), "--out", str(taken)])
    assert status == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory ") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_out_drops_an_earlier_error(tmp_path):
    """A failed run's error.json does not outlive a later successful run."""
    threebox = str(MODELS / "threebox.model")
    status, out = run(tmp_path, "o", "coarsen", "--model", threebox, "--partition", "[[0],[]]")
    assert status == 2 and (out / "error.json").exists()
    status, out = run(tmp_path, "o", "eval", "--model", threebox)
    assert status == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(load(out, "manifest.json")["outputs"]
                                                           + ["manifest.json"])


def test_out_drops_an_earlier_manifest(tmp_path):
    """A successful run's manifest.json does not outlive a later failed run."""
    threebox = str(MODELS / "threebox.model")
    status, out = run(tmp_path, "o", "eval", "--model", threebox)
    assert status == 0
    status, out = run(tmp_path, "o", "records", "--model", threebox)
    assert status == 4
    assert not (out / "manifest.json").exists()
    assert load(out, "error.json")["code"] == "not-decoherent"
    assert (out / "summary.json").exists()   # other files are left alone


NON_IDEMPOTENT_SLOT = ("slot 1.0 s\nmember a matrix [[0.5,0.5],[0.5,0.6]]\n"
                       "member b matrix [[0.5,-0.5],[-0.5,0.4]]\n")


def test_non_idempotent_member_error_bytes(tmp_path):
    model = tmp_path / "bad.model"
    model.write_text("dim 2\nstate [1,0]\nevolution zero\n" + NON_IDEMPOTENT_SLOT)
    status, out = run(tmp_path, "o", "eval", "--model", str(model))
    assert status == 3
    assert (out / "error.json").read_text() == """{
  "code": "invariant-violation",
  "command": "eval",
  "invariant": "projector-idempotency",
  "magnitude": 0.050000000000000044,
  "message": "invariant 'projector-idempotency' violated by 5.000e-02: a"
}
"""


def test_non_idempotent_member_under_a_hamiltonian(tmp_path):
    """The evolved member is the one checked: same invariant and label, and
    the evolved matrix's own defect."""
    model = tmp_path / "bad.model"
    model.write_text("dim 2\nstate [1,0]\nevolution hamiltonian [[0,1],[1,0]]\n"
                     + NON_IDEMPOTENT_SLOT)
    status, out = run(tmp_path, "o", "eval", "--model", str(model))
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "projector-idempotency"
    assert err["message"].endswith(": a")


def test_empty_class_in_partition_option(tmp_path):
    """As on a partition line: every class must be nonempty, a parse error."""
    status, out = run(tmp_path, "o", "coarsen", "--model", str(MODELS / "threebox.model"),
                      "--partition", "[[0],[]]")
    assert status == 2
    err = load(out, "error.json")
    assert (err["expected"], err["found"]) == ("nonempty lists of integers", "[[0],[]]")


@pytest.mark.parametrize("dim", ["1000000000", "9" * 401])
def test_model_dimension_capped(tmp_path, dim):
    """Without the cap, dim 1000000000 dies with a numpy memory error while
    the zero Hamiltonian is allocated; the cap fires as the line is parsed."""
    model = tmp_path / "big.model"
    model.write_text(f"dim {dim}\nslot 1.0 x\nmember a basis {{0}}\n")
    status, out = run(tmp_path, "o", "eval", "--model", str(model))
    assert status == 5
    err = load(out, "error.json")
    assert (err["code"], err["what"], err["value"], err["cap"]) == (
        "cap-exceeded", "dimension", int(dim), 1024)


def test_partition_index_beyond_float_range(tmp_path):
    """The magnitude of a 401-digit index does not fit a float."""
    status, out = run(tmp_path, "o", "coarsen", "--model", str(MODELS / "threebox.model"),
                      "--partition", f"[[0,1,2],[3,4,{'9' * 401}]]")
    assert status == 3
    err = load(out, "error.json")
    assert err["invariant"] == "class-index-range"
    assert err["magnitude"] == "inf"


def test_partition_index_beyond_int_digit_limit(tmp_path):
    """json.loads refuses an int of more than 4300 digits with a plain
    ValueError; the literal and a model file's partition line both report it
    as a parse error."""
    literal = f"[[0,1,2],[3,4,{'9' * 5001}]]"
    status, out = run(tmp_path, "lit", "coarsen", "--model", str(MODELS / "threebox.model"),
                      "--partition", literal)
    assert status == 2
    assert load(out, "error.json")["code"] == "parse-error"

    model = tmp_path / "big.model"
    model.write_text((MODELS / "threebox.model").read_text() + f"partition big {literal}\n")
    status, out = run(tmp_path, "file", "eval", "--model", str(model))
    assert status == 2
    err = load(out, "error.json")
    assert err["code"] == "parse-error"
    assert err["col"] == len("partition big ") + 1


NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
SINGLE_MODELS = [p for p in sorted(MODELS.glob("*.model")) if p.stem != "pair"]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_non_finite_model_numbers_never_reach_artifacts(data):
    """Any number of a shipped model replaced by a non-finite or overflowing
    literal ends in a documented exit status, and every JSON written is
    strict JSON."""
    path = data.draw(st.sampled_from(SINGLE_MODELS), label="model")
    text = path.read_text()
    start, end = data.draw(st.sampled_from([m.span() for m in NUMBER.finditer(text)]),
                           label="number")
    bad = data.draw(st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400"]),
                    label="literal")
    command = data.draw(st.sampled_from(["eval", "decohere", "records", "coarsen",
                                         "finegrained"]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / path.name
        model.write_text(text[:start] + bad + text[end:])
        out = Path(tmp) / "out"
        status = run_command([command, "--model", str(model), "--out", str(out)])
        assert status in (0, 2, 3, 4, 5)
        for written in out.glob("*.json"):
            load(out, written.name)


def _decoherence_payload(report, offenders):
    """decoherence.json's members, as decohere gives them to the writer: the
    readings of an eager report, and a verdict that follows the offenders."""
    return {
        "tolerance": report.tolerance,
        "dec": report.dec,
        "max_offdiagonal": report.max_offdiagonal,
        "medium_decoherent": not len(offenders),
        "linearly_positive": report.linearly_positive,
        "ep": report.ep_probs,
        "dh": report.dh_probs,
        "offenders": offenders,
    }


def _oracle_decohere(report, **members):
    """functional.csv and decoherence.json as the generic _csv and one json.dumps
    write them, with the offenders of the loop oracle as one dict each;
    members replace the report's own."""
    offenders = offdiagonal_offenders_loop(report.functional, report.tolerance)
    payload = {**_decoherence_payload(report, offender_dicts(offenders)), **members}
    header = tuple(f"c{j}" for j in range(len(report.functional)))
    return _csv(header, report.functional), dump_json(payload)


@st.composite
def _reports(draw):
    """The eager readings of an arbitrary Hermitian functional with a real
    diagonal, and of arbitrary EPs."""
    m = draw(st.integers(1, 6), label="m")
    g = np.array(draw(st.lists(FLOAT_PARTS, min_size=2 * m * m, max_size=2 * m * m))).view(complex)
    upper = np.triu(g.reshape(m, m), 1)
    dh = np.array(draw(st.lists(FLOAT_PARTS, min_size=m, max_size=m)))
    functional = upper + upper.conj().T + np.diag(dh)
    ep = np.array(draw(st.lists(FLOAT_PARTS, min_size=m, max_size=m)))
    tol = draw(st.sampled_from([0.0, 1e-8, 0.5, 1e300]), label="tol")
    return eager_report(functional, ep, tol)


@given(report=_reports())
@settings(max_examples=200, deadline=None)
def test_decohere_writers_match_generic_route(report):
    """The streaming writers give the bytes of _csv and one json.dumps, offenders or none."""
    offenders = offdiagonal_offenders(report.functional, report.tolerance)
    csv, decoherence = _oracle_decohere(report)
    f = report.functional
    assert "".join(_functional_csv(f[i, i:] for i in range(len(f)))) == csv
    assert "".join(_json_chunks(_decoherence_payload(report, offenders))) == decoherence


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12)


@given(payload=st.dictionaries(st.text().filter(lambda key: key != "offenders"), _JSON_VALUES,
                               max_size=5))
@settings(max_examples=300, deadline=None)
def test_json_chunks_match_one_json_dumps(payload):
    """Member by member gives the bytes of one json.dumps: nested and empty
    containers, and strings with newlines or non-ASCII text. ("offenders" is
    the record array's key.)"""
    assert "".join(_json_chunks(payload)) == dump_json(payload)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_functional_csv_matches_generic_route_on_non_finite_parts(data):
    """NaN and infinite parts too: format_complex prints a NaN imaginary part as
    "-nan" on both sides of the diagonal."""
    m = data.draw(st.integers(1, 4), label="m")
    parts = st.one_of(FLOAT_PARTS, st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    g = np.array(data.draw(st.lists(parts, min_size=2 * m * m, max_size=2 * m * m))).view(complex)
    upper = np.triu(g.reshape(m, m), 1)
    functional = upper + upper.conj().T + np.diag(np.ones(m))
    assert "".join(_functional_csv(functional[i, i:] for i in range(m))) == \
        _csv(tuple(f"c{j}" for j in range(m)), functional)


@given(m=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       real=st.sampled_from([0.0, 0.3, 1.0]), signed=st.booleans(), zero=st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_functional_csv_matches_the_per_cell_writer(m, seed, real, signed, zero):
    """The banded writer gives the bytes of the writer that kept one string per
    mirrored cell, for m = 1..70 (across the edges of its 16-row bands): with
    cells whose imaginary part is zero, -0.0 parts and zero branches."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    f.imag[rng.random((m, m)) < real] = 0.0
    if signed:
        f.real[rng.random((m, m)) < 0.2] = -0.0
        f.imag[rng.random((m, m)) < 0.2] = -0.0
    dead = rng.choice(m, size=min(zero, m), replace=False)
    f[dead, :] = 0.0
    f[:, dead] = 0.0
    assert "".join(_functional_csv(f[i, i:] for i in range(m))) == \
        "".join(functional_csv_pending(f))


def _model_file(path, psi, hs):
    """Write (psi, hs) as a model file with explicit member matrices and no evolution."""
    slots = tuple(
        SlotClause(slot.time, f"s{k}", tuple(
            MemberClause(p.label, "matrix", matrix=tuple(map(tuple, p.entries.tolist())))
            for p in slot.members))
        for k, slot in enumerate(hs.slots))
    path.write_text(serialize_model(ModelDocument(
        dim=hs.dim, state=tuple(psi.amplitudes.tolist()),
        evolution=EvolutionClause("zero"), slots=slots)))
    return path


def test_decohere_large_model_matches_generic_route(tmp_path):
    """512 histories of a random model: run_command writes the generic route's bytes,
    for decohere and for the error.json of the records it refuses."""
    psi, hs = random_model(np.random.default_rng(863), d_max=12, n_max=3)
    assert hs.size == 512
    model = _model_file(tmp_path / "m512.model", psi, hs)
    status, out = run(tmp_path, "o", "decohere", "--model", str(model))
    assert status == 0
    doc = load_model(str(model))
    hs, psi = build_history_set(doc), build_state(doc)
    report = decoherence_functional(hs, psi)
    assert not report.medium_decoherent
    csv, decoherence = _oracle_decohere(decoherence_functional_eager(hs, psi))
    assert (out / "functional.csv").read_bytes() == csv.encode()
    assert (out / "decoherence.json").read_bytes() == decoherence.encode()

    status, out = run(tmp_path, "r", "records", "--model", str(model))
    assert status == 4
    with pytest.raises(NotDecoherent) as exc:
        construct_records(report)
    loop = offdiagonal_offenders_loop(report.functional, DEFAULT_DEC_TOL)
    assert len(loop) > 10_000 and offender_pairs(exc.value.offenders) == loop
    error = dump_json({"command": "records", **not_decoherent_payload(exc.value)})
    assert (out / "error.json").read_bytes() == error.encode()


@pytest.mark.parametrize("field", ["dec", "ep", "dh", "magnitude", "error"])
def test_decoherence_json_refuses_non_finite_values(tmp_path, field):
    """As strict JSON does, and before decoherence.json or error.json is opened."""
    out = _OutDir(str(tmp_path))
    if field == "error":
        offenders = np.rec.fromarrays(([0], [1], [float("nan")]), names="alpha,beta,magnitude")
        err = NotDecoherent(offenders, 1e-8)
        with pytest.raises(ValueError):
            dump_json(not_decoherent_payload(err))
        with pytest.raises(ValueError):
            out.write("error.json", _json_chunks({"command": "records", **err.payload()}))
        assert not (tmp_path / "error.json").exists()
        return
    # the two finite cells of magnitude 1e308 sum past the largest float in dec
    cross = complex(0.0, {"dec": 1e308, "magnitude": float("inf")}.get(field, 0.25))
    dh = float("nan") if field == "dh" else 0.5
    functional = np.array([[0.5, cross], [cross.conjugate(), dh]])
    ep = np.array([0.5, float("nan") if field == "ep" else 0.5])
    report = eager_report(functional, ep, 1e-8)
    offenders = offdiagonal_offenders(functional, report.tolerance)
    assert len(offenders) == 1
    # a NaN or infinite cell makes dec and max_offdiagonal non-finite too, and
    # dec is written first: give both finite values, so the field under test is refused
    members = {"dec": 0.5, "max_offdiagonal": 0.25} if field in ("dh", "magnitude") else {}
    payload = {**_decoherence_payload(report, offenders), **members}
    key = "offenders" if field == "magnitude" else field
    finite = {"dec": 0.5, "ep": np.array([0.5, 0.5]), "dh": np.array([0.5, 0.5]),
              "offenders": offdiagonal_offenders(np.array([[0.5, 0.25j], [-0.25j, 0.5]]), 1e-8)}
    "".join(_json_chunks({**payload, key: finite[key]}))   # the field under test alone is refused
    with pytest.raises(ValueError):
        _oracle_decohere(report, **members)
    with pytest.raises(ValueError):
        out.write("decoherence.json", _json_chunks(payload))
    assert not (tmp_path / "decoherence.json").exists()
