"""The package keeps only what it uses: every import of a module is used
there, every public function and class is reached from package code, and a
command loads no module it does not run."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gsqg

PACKAGE = Path(gsqg.__file__).parent

# public names no package code calls, each kept for a reason outside it
KEPT_UNREFERENCED = {
    "rhs": "the definition of the dynamics in the tests, and a traced span of the benchmark",
    "reference_time": "the benchmark's workloads place the collapse run with it",
    "propagator_norm": "acceptance criterion 8, the propagator decay",
    "cardano_y": "acceptance criteria 3 and 6, the closed-form side at alpha = 1",
    "collapse_scenario": "negates the intensities of a burst scenario, which then runs as "
                         "the collapse half of the paper",
    "run_burst": "one seeded run alone, the only way to run a collapse scenario, and a "
                 "traced span of the benchmark",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names read as variables or attributes anywhere in the code of a tree
    (string constants, docstrings included, are not code)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _package_uses(trees: dict[str, ast.Module]) -> set[str]:
    """Names package code reads; a re-export in `__init__` is not a use."""
    return set().union(*(_used_names(t) for m, t in trees.items() if m != "__init__"))


def _public_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_import_is_used():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue    # its imports are the public surface
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_public_definition_is_reached():
    trees = _trees()
    used = _package_uses(trees)
    unreached = [f"{module}.{name}" for module, name in _public_definitions(trees)
                 if name not in used and name not in KEPT_UNREFERENCED]
    assert unreached == []


def test_kept_names_exist_and_are_unreferenced():
    # an entry that package code starts to use, or whose definition is
    # gone, leaves the set
    trees = _trees()
    assert set(KEPT_UNREFERENCED) <= {name for _, name in _public_definitions(trees)}
    assert not set(KEPT_UNREFERENCED) & _package_uses(trees)


# the names `gsqg` exports, the six library modules among them
PUBLIC = [
    "ALPHA_GUARD", "BurstDiagnostics", "BurstScenario", "Classification",
    "ConservedQuantities", "DomainError", "EIG_TOL", "HypothesisReport", "IntegratorConfig",
    "MuRoots", "RATE_TOL", "SS_TOL", "SelfSimilarMotion", "SingularityError",
    "StabilityMatrix", "Status", "SweepRecord", "SweepResult", "Trajectory", "TripleConfig",
    "VortexState", "burstsim", "cardano_discriminant", "cardano_y", "center", "classify",
    "collapse_scenario", "collapse_time_fit", "conserved", "convergence_study",
    "coupling_constant", "hypothesis_a_check", "integrate", "integrate_batch", "integrator",
    "kernel", "make_burst_initial", "motion_from_config", "oriented_config",
    "propagator_norm", "reference_time", "rhs", "run_burst", "search", "selfsimilar",
    "selfsimilar_rate", "stability", "sweep", "sweep_csv", "x_interval", "y_from_x", "zeta",
]
MODULES = ("kernel", "integrator", "selfsimilar", "stability", "search", "burstsim")

# the library modules each command loads; it loads no other
SEARCH = {"kernel", "selfsimilar", "stability", "search"}
LOADS = {
    "find-config": SEARCH,
    "sweep": SEARCH,
    "simulate": {"kernel", "selfsimilar", "integrator"},
    "burst": {"kernel", "selfsimilar", "integrator", "burstsim"},
}


def _fresh(code: str, *args: str, cwd=None) -> subprocess.Popen:
    """A fresh interpreter that imports gsqg from this tree and runs code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result(proc: subprocess.Popen):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def test_import_gsqg_loads_no_module():
    code = ("import json, sys\n"
            "import gsqg\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.partition('.')[0] in\n"
            "                         ('gsqg', 'numpy')),\n"
            "                  [n for n in dir(gsqg) if not n.startswith('_')]]))\n")
    loaded, names = _result(_fresh(code))
    assert loaded == ["gsqg"]
    assert names == PUBLIC


def test_public_names_are_their_modules_objects():
    assert sorted(gsqg.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(gsqg, name)
        home = sys.modules[f"gsqg.{gsqg._HOME[name]}"]
        assert value is (home if name in MODULES else getattr(home, name)), name
        # the table names the module that defines each class and function
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_a_command_imports_neither_scipy_nor_a_process_pool(tmp_path):
    # each command, in a fresh interpreter, loads the library modules of its
    # row of LOADS and no other.  SciPy serves only propagator_norm, which
    # imports scipy.linalg itself, and concurrent.futures only sweep
    # --jobs > 1.  With sys.modules["scipy"] set to None an attempted import
    # of SciPy raises.
    cfg = gsqg.oriented_config(1.0, 0.7019)
    (tmp_path / "c.json").write_text(cfg.to_json())
    (tmp_path / "s.json").write_text(gsqg.BurstScenario(
        triple=cfg, background=((1.0 + 0j, 1.0),), t_ini_sequence=(1e-4, 5e-5, 2.5e-5),
        horizon=5e-4).to_json())
    commands = [
        ["find-config", "--alpha", "1", "--x", "0.7019", "--out", "fc.json"],
        ["sweep", "--alpha-min", "1.5", "--alpha-max", "1.502", "--x-coarse", "1e-3",
         "--jobs", "1", "--out", "sweep.csv"],
        ["simulate", "--config", "c.json", "--t0", "0", "--t1", "0.5", "--out", "sim.csv"],
        ["burst", "--scenario", "s.json", "--rel-tol", "1e-8", "--out", "burst"],
    ]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import gsqg, gsqg.cli\n"
            "status = gsqg.cli.main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([status, sorted(m for m, v in sys.modules.items() if v is not None\n"
            "                                 and m.partition('.')[0] in\n"
            "                                 ('gsqg', 'scipy', 'concurrent'))]))\n")
    procs = [_fresh(code, json.dumps(argv), cwd=tmp_path) for argv in commands]
    for argv, proc in zip(commands, procs):
        expected = sorted(["gsqg", "gsqg.cli", *(f"gsqg.{m}" for m in LOADS[argv[0]])])
        assert _result(proc) == [0, expected], argv[0]
