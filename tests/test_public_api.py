"""The public surface: ephist.__all__ is the exact list of what the package exports."""
import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import re
import types
from pathlib import Path

import pytest

import ephist

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# slow paths that tests/oracles.py now holds, and wrappers nothing needed
REMOVED = (
    "total_negative", "joint_functional", "product_records", "phi_sector_functional",
    "phi_sector_extended_probabilities", "greedy_sector_search",
    "joint_class_operator", "coarse_class_operator", "extended_density_from_amplitudes",
    "enumerate_partitions", "ENUMERATION_CAP", "dh_ep_difference", "with_bins", "class_sum",
    "HistoryIndex", "BranchVector", "branch_vector", "chain_amplitude", "extended_probability",
    "dh_probability", "class_operator", "flatten_index", "unflatten_index", "factor_amplitudes",
    "joint_extended_probability", "merge_slot_alternatives", "slot_partition",
    "cylinder_history_set", "cylinder_partition", "identity_partition", "total_partition",
    "FINE_CAP", "serialize_model", "integrate_density", "interference_integral",
    "AllBranchesZero", "JOINT_DIM_CAP", "RecordCheckReport",
)


def test_all_is_unique_and_resolves_to_non_modules():
    assert len(ephist.__all__) == len(set(ephist.__all__))
    for name in ephist.__all__:
        assert not isinstance(getattr(ephist, name), types.ModuleType), name


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(ephist).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(ephist.__all__)


def test_star_import_binds_no_submodules():
    namespace: dict = {}
    exec("from ephist import *", namespace)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]


def test_readme_entry_points_are_exported():
    text = README.read_text()
    table = text[text.index("| area | functions |"):text.index("## Model files")]
    names = re.findall(r"`(\w+)`", table)
    assert len(names) > 30
    assert sorted(set(names) - set(ephist.__all__)) == []


def test_readme_quick_start_output():
    """The first python block of the README prints the block that follows it."""
    text = README.read_text()
    code = re.search(r"```python\n(.*?)```", text, re.S)
    shown = re.match(r"\s*```\n(.*?)```", text[code.end():], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code.group(1), {})
    assert out.getvalue() == shown.group(1)


def _traced() -> dict[str, tuple[str, ...]]:
    """perfbench/tracer.py's TRACED, read from its source, not imported."""
    source = (ROOT / "perfbench" / "tracer.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])


# where a caller of a public name may live: the package itself, the scripts,
# the benchmark, and the acceptance criteria
CALLER_FILES = (
    [path for path in sorted((ROOT / "src" / "ephist").glob("*.py")) if path.name != "__init__.py"]
    + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"])


def _references(path: Path) -> set[str]:
    """Names a file reads: loaded names and attributes. A def, class or
    assignment target is a definition, not a reference."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_name_has_a_caller():
    """A public name that only tests use is not part of the surface. The
    benchmark tracer calls the functions it names in TRACED through getattr."""
    referenced = set().union(*map(_references, CALLER_FILES), *_traced().values())
    assert sorted(set(ephist.__all__) - referenced) == []


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's tracer wraps is still defined in its
    layer's module."""
    traced = _traced()
    assert "histories" in traced
    for layer, names in traced.items():
        module = importlib.import_module(f"ephist.{layer}")
        assert [name for name in names if not callable(getattr(module, name, None))] == [], layer


def test_caps_are_exported_and_documented():
    caps = {name: getattr(ephist, name) for name in ephist.__all__ if name.endswith("_CAP")}
    assert caps == {"M_CAP": 4096, "BINS_CAP": 4096, "DIM_CAP": 1024}
    text = README.read_text()
    assert [name for name in caps if f"`{name}`" not in text] == []


def test_tolerances_and_caps_have_no_overrides():
    """Caps, the greedy search's stopping rule and the structural tolerances
    are module constants: no call or value carries its own. (CapExceeded's
    cap is the value it reports, not an option.)"""
    for name in ephist.__all__:
        obj = getattr(ephist, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = set(inspect.signature(obj).parameters)
        assert not params & {"m_cap", "cap", "min_classes"}, name
    for name in ("StateVector", "HermitianOperator", "Projector", "ProjectorSet",
                 "ProjectorSetReport"):
        assert "tol" not in {f.name for f in dataclasses.fields(getattr(ephist, name))}, name
    assert "tol" not in inspect.signature(ephist.validate_projector_set).parameters


def test_two_slit_geometry_is_fixed():
    """k, d, D, the amplitude scale and the screen window are module constants:
    no call takes them, and a TwoSlitConfig holds only its bin count."""
    for name in ephist.__all__:
        obj = getattr(ephist, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            params = set(inspect.signature(obj).parameters)
            assert not params & {"k", "d", "D", "a", "y_range", "k_deltas"}, name
    assert [f.name for f in dataclasses.fields(ephist.TwoSlitConfig)] == ["bins"]


def test_projector_set_report_holds_only_set_defects():
    """Hermiticity and idempotency are a Projector's own checks; a set adds
    only completeness and exclusivity."""
    assert tuple(f.name for f in dataclasses.fields(ephist.ProjectorSetReport)) == (
        "completeness_defect", "exclusivity_defect")


def test_engine_reports_hold_only_what_they_cannot_derive():
    """Every other reading of the three engine reports is a property."""
    fields = {name: tuple(f.name for f in dataclasses.fields(getattr(ephist, name)))
              for name in ("DecoherenceReport", "CorrelationReport", "ProductRuleReport")}
    assert fields == {"DecoherenceReport": ("history_set", "psi", "tolerance"),
                      "CorrelationReport": ("record_probs", "ep_probs", "epsilon"),
                      "ProductRuleReport": ("joint_ep", "factor_ep_product")}


def test_no_public_callable_picks_a_slot_by_index():
    """Slot-wise merges take one grouping per slot (group_slots), so no call
    selects a slot by a position it would have to range-check."""
    for name in ephist.__all__:
        obj = getattr(ephist, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert "slot_index" not in inspect.signature(obj).parameters, name


def _top_level_definitions(path: Path) -> set[str]:
    """Names a module binds by a top-level def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_is_declared_once_by_its_module():
    """Each module's __all__ lists only names it defines, no name is in two
    lists, and ephist.__all__ is the lists in the package's import order;
    the package itself names none of them."""
    init = ast.parse((ROOT / "src" / "ephist" / "__init__.py").read_text())
    modules = [node.module for node in init.body if isinstance(node, ast.ImportFrom)]
    lists = []
    for name in modules:
        module = importlib.import_module(f"ephist.{name}")
        undefined = set(module.__all__) - _top_level_definitions(Path(module.__file__))
        assert sorted(undefined) == [], name
        lists.append(module.__all__)
    flat = [name for names in lists for name in names]
    assert len(flat) == len(set(flat))
    assert ephist.__all__ == flat
    literals = {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    assert sorted(literals & set(flat)) == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(ephist, name)
    with pytest.raises(ImportError):
        exec(f"from ephist import {name}", {})
