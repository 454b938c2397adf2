"""The names the benchmark harness reaches in ``qnmlab`` exist.

``bench/tracer.py`` wraps functions and methods of every layer by name, and
``bench/workloads.py`` calls the pipeline through module attributes.  A
rename or deletion of one of them breaks the benchmark; these tests make it
fail here too.  They read ``bench/`` and change nothing in it.
"""

import ast
import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# the module names workloads.py binds with ``from qnmlab... import ...``
MODULES = {"cli": "qnmlab.cli", "config": "qnmlab.config",
           "modes": "qnmlab.solver.modes", "normalize": "qnmlab.normalize",
           "dyson": "qnmlab.dyson", "observables": "qnmlab.observables",
           "background": "qnmlab.background"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_leaves_no_patch():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    assert not tracer._patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_workload_attributes_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}
    # the collector finds the calls it is meant to guard
    assert {("cli", "oracle_se"), ("cli", "run_pipeline"),
            ("normalize", "sauvan_norm"), ("modes", "find_qnm")} <= used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(MODULES[mod]), attr)]
    assert not missing
