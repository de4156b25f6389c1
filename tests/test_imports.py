"""Cold start and structure: only commands that build a sparse matrix import
scipy (``generate`` and ``energy --trajectory`` build none), neither they nor
``import grade.cli`` load a process-pool module (scipy itself loads
``concurrent.futures``), only one place in the source builds that matrix, and
no call names ``arc_src`` in a scatter outside it. Each decision below has one
home: ``io._loadtxt`` parses text tables and finds their faults without
seeking back, only ``dynamics`` and ``kernels`` ask whether a setting is
'attention', every config is built by its ``from_json`` (no ``asdict``), and
the clamped kernel kinds, the simulate flags and the grad-check tolerance are
each spelled once. ``solvers.fixed_step_count`` alone divides the horizon, and
``solvers.fixed_steps`` dates its steps without summing them. A bare ``import
grade`` loads no submodule and not numpy: one export table in ``__init__``
spells each public name once and imports its module on first use, so
``__init__`` has no ``from .x import``; ``grade.X`` is its home module's
object, the eight modules it loaded eagerly before stay attributes, and an
unknown name is an ``AttributeError``. The version is spelled once, as
``grade.__version__``, which ``pyproject.toml`` reads."""
import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import grade
from grade.kernels import KERNEL_KINDS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
INIT = SRC / "grade" / "__init__.py"
# grade.__all__ when __init__ imported every name eagerly
PUBLIC = {
    "__version__", "ActivationSpec", "ClusterProfile", "CsbmConfig", "Dataset", "DynamicsConfig",
    "EnergySeries", "Graph", "KernelMatrix", "KernelSpec", "ModelParams", "NumericalError",
    "ProjectionParams", "SolverConfig", "TrainConfig", "Trajectory", "aggregation_term",
    "attention_adjacency", "cluster_count", "csbm_generate", "default_cluster_eps",
    "diffusion_term", "dirichlet_energy", "euler_step", "feature_spread", "finite_difference_grad",
    "forward", "from_edge_list", "gradient_check", "integrate", "kernel_matrix", "kernel_scalar",
    "loss", "loss_and_grad", "metastability_profile", "min_degree_node", "oversmoothing_verdict",
    "rhs", "rk4_step", "row_normalize", "row_normalized_adjacency", "train",
}
# the submodules that a bare `import grade` made attributes when it loaded them eagerly
ATTRIBUTE_MODULES = ["autodiff", "codec", "diagnostics", "dynamics", "graph", "kernels",
                     "solvers", "training"]

_CHILD = """
import sys
import numpy as np
from grade import io
from grade.cli import dispatch
from grade.solvers import Trajectory

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def pools_loaded():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("multiprocessing", "concurrent"))

out = sys.argv[1]
assert pools_loaded() == [], pools_loaded()
assert dispatch(["generate", "--n", "20", "--seed", "3", "--out", out + "/ds"]) == 0
assert scipy_loaded() == [], scipy_loaded()
assert pools_loaded() == [], pools_loaded()
X = io.read_dataset(out + "/ds").features
io.write_trajectory_csv(Trajectory(np.array([0.0, 1.0]), np.stack([X, 0.5 * X]), 1),
                        out + "/trajectory.csv")
assert dispatch(["energy", "--dataset", out + "/ds", "--trajectory", out + "/trajectory.csv",
                 "--out", out + "/energy"]) == 0
assert scipy_loaded() == [], scipy_loaded()
assert dispatch(["simulate", "--dataset", out + "/ds", "--horizon", "1",
                 "--out", out + "/run"]) == 0
assert "scipy.sparse" in scipy_loaded(), scipy_loaded()
"""


def _called(node: ast.Call) -> str:
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _calls(tree, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _called(node) == name]


def _sources():
    for path in sorted((SRC / "grade").glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _fresh(code: str, *args: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter with grade on ``src``."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_generate_imports_no_scipy_and_simulate_loads_it(tmp_path):
    _fresh(_CHILD, str(tmp_path))


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import sys, grade\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                    "('grade', 'numpy', 'scipy')))")
    assert loaded.split() == ["['grade']"]


def test_every_public_name_is_the_object_of_its_home_module():
    assert set(grade.__all__) == PUBLIC and len(grade.__all__) == len(PUBLIC)
    namespace = {}
    exec("from grade import *", namespace)
    for name in PUBLIC - {"__version__"}:
        value = getattr(grade, name)
        assert value is getattr(sys.modules[value.__module__], name) is namespace[name], name
        assert value.__module__.startswith("grade."), name
    assert set(ATTRIBUTE_MODULES) <= set(dir(grade)) and PUBLIC <= set(dir(grade))


def test_the_eight_modules_resolve_as_attributes_after_a_bare_import():
    # io and cli resolve only once imported, through the import system's fallback
    out = _fresh("import importlib, grade\n"
                 f"for name in {ATTRIBUTE_MODULES!r}:\n"
                 "    assert getattr(grade, name) is importlib.import_module(f'grade.{name}')\n"
                 "print(hasattr(grade, 'io'), hasattr(grade, 'cli'))\n"
                 "from grade import io\n"
                 "import grade.cli\n"
                 "print(grade.io is io, grade.cli.__name__)")
    assert out.split("\n")[:2] == ["False False", "True grade.cli"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'grade' has no attribute 'no_such_name'"):
        grade.no_such_name  # noqa: B018
    assert not hasattr(grade, "no_such_name")
    with pytest.raises(ImportError):
        from grade import no_such_name  # noqa: F401


def test_init_imports_no_name_and_spells_each_public_name_once():
    tree = ast.parse(INIT.read_text())
    relative = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    spelled = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in PUBLIC]
    assert relative == [] and sorted(spelled) == sorted(PUBLIC)


def test_the_version_is_spelled_once_in_grade_and_read_by_pyproject():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "grade.__version__"}
    # setuptools reads the attribute statically: a module-level assignment of a string
    versions = [node.value.value for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and [getattr(t, "id", None) for t in node.targets] == ["__version__"]]
    assert versions == [grade.__version__] and isinstance(grade.__version__, str)


def test_only_graph_imports_scipy_and_one_call_builds_a_csr_array():
    importers, builds = set(), 0
    for path in (SRC / "grade").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.add(path.name)
            if isinstance(node, ast.Call):
                builds += _called(node) == "csr_array"
    assert importers == {"graph.py"}
    assert builds == 1


def test_no_call_sums_over_arc_sources_outside_the_arc_csr():
    # sums keyed by arc_src go through Graph.arc_sum (and ad.arc_spmm); segment_softmax's
    # reduceat and gather_rows' backward scatter are the per-node arc reductions outside it
    scatters = {"bincount", "segment_sum", "_scatter_rows"}
    found = []
    for path in sorted((SRC / "grade").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
            if _called(node) in scatters and any(
                    getattr(sub, "attr", getattr(sub, "id", None)) == "arc_src"
                    for argument in arguments for sub in ast.walk(argument)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_io_loadtxt_parses_text_and_io_never_seeks():
    outside, inside = [], 0
    for name, tree in _sources():
        home = {id(call) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and (name, fn.name) == ("io.py", "_loadtxt")
                for call in _calls(fn, "loadtxt")}
        inside += len(home)
        outside += [f"{name}:{call.lineno}" for call in _calls(tree, "loadtxt")
                    if id(call) not in home]
        if name == "io.py":
            outside += [f"io.py:{call.lineno} seeks" for call in _calls(tree, "seek")]
    assert inside == 1 and outside == []


def test_only_dynamics_and_kernels_compare_a_setting_with_attention():
    # DynamicsConfig.projection_keys() is the one rule for which runs read a projection
    def attention(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(item, ast.Constant) and item.value == "attention" for item in items)

    found = []
    for name, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            setting = any(isinstance(operand, ast.Attribute)
                          and operand.attr in ("adjacency_mode", "kind") for operand in operands)
            if setting and any(map(attention, operands)):
                found.append(f"{name}:{node.lineno}")
    assert found and {place.split(":")[0] for place in found} <= {"dynamics.py", "kernels.py"}, found


def test_no_config_is_built_by_asdict_and_no_setting_is_spelled_twice():
    # kernels.CLAMPED_KINDS, cli._add_sim_flags and cli.GRAD_CHECK_TOLERANCE are the homes
    def spelled(value):
        return isinstance(value, float) or isinstance(value, str) and (
            value in KERNEL_KINDS or value.startswith("--") or re.search(r"\de[-+]?\d", value))

    checked, found = set(), []
    for name, tree in _sources():
        found += [f"{name}:{call.lineno} asdict" for call in _calls(tree, "asdict")]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in (
                    "_clamp_margin", "_check_projection", "_cmd_grad_check"):
                checked.add(fn.name)
                found += [f"{name}:{node.lineno} {node.value!r}" for node in ast.walk(fn)
                          if isinstance(node, ast.Constant) and spelled(node.value)]
    assert len(checked) == 3 and found == []


def test_only_fixed_step_count_divides_the_horizon_and_fixed_steps_sums_no_times():
    # the fixed grid's count has one home; step k ends at step·k, not at a running t + h
    def names(node):
        return sorted(getattr(side, "attr", getattr(side, "id", ""))
                      for side in (node.left, node.right))

    home, divisions, sums = set(), [], []
    for name, tree in _sources():
        for node in ast.walk(tree):  # a function before what it holds
            if isinstance(node, ast.FunctionDef) and name == "solvers.py":
                if node.name == "fixed_step_count":
                    home |= {id(sub) for sub in ast.walk(node)}
                elif node.name == "fixed_steps":
                    sums += [f"solvers.py:{sub.lineno}" for sub in ast.walk(node)
                             if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add)
                             and names(sub) == ["h", "t"]]
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv)) \
                    and "horizon" in names(node):
                divisions.append((f"{name}:{node.lineno}", id(node) in home))
    assert [inside for _, inside in divisions] == [True], divisions
    assert sums == []
