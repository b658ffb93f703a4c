"""Every exported name resolves, removed modules and names stay removed, no
import is unused, and the benchmark's traced run still finds what it wraps."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zetascope

MODULES = sorted(m.name for m in pkgutil.iter_modules(zetascope.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"zetascope.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def test_quadrature_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("zetascope.quadrature")


def test_removed_names_stay_removed():
    """log_zeta_derivs(k, ...)[0][k] replaced log_zeta_deriv; SelbergSpec.q_max had no reader;
    the disk check samples the boundary circle, so its polar grid knobs are gone;
    zeta_derivs differentiates the Dirichlet sums, so it has no circle knobs;
    log_zeta_derivs runs the log Taylor kernel, so its circle knobs and the
    tracked log on a circle are gone; the construction's prime cutoff,
    feasibility margins and tail tolerance, and the curve mean's kernel and
    tolerance, had no caller that set them; the panel rule places its own nodes;
    the off-block tail bounds and excluded primes of a construction had no reader;
    both scan modes share one chunk size, and the log transform takes the
    scan's branch table, so the zeta chunk, the chunk option and the table
    option of the batched log kernel are gone; the scan reads zeta only
    through the Taylor model of zeta_engine, so it binds neither the kernel,
    its truncation and majorant, nor the per-point log evaluator, and its
    pipeline `_run_scan` takes one fit function rather than an objective and a model."""
    import inspect
    from dataclasses import fields

    from zetascope import mollifier, omega, scan, universality, zeta_engine

    assert not hasattr(zetascope, "log_zeta_deriv")
    assert not hasattr(zeta_engine, "log_zeta_deriv")
    assert "q_max" not in {f.name for f in fields(zeta_engine.SelbergSpec)}
    for func in (universality.check_disk_approximation, universality.run_universality):
        assert not {"rings", "angles"} & set(inspect.signature(func).parameters)
    assert not {"radius", "nodes"} & set(inspect.signature(zeta_engine.zeta_derivs).parameters)
    assert not {"nodes", "settle"} & set(inspect.signature(zeta_engine.log_zeta_derivs).parameters)
    assert not hasattr(zeta_engine, "_circle_log_values")
    assert not {"q", "feas_margin"} & set(inspect.signature(omega.construct_phases).parameters)
    assert "feas_margin" not in inspect.signature(omega.calibrate_u0).parameters
    assert "tol" not in inspect.signature(omega.tail_constants).parameters
    assert not {"kernel", "tol"} & set(inspect.signature(mollifier.mean_over_curve).parameters)
    assert not hasattr(mollifier, "gauss_nodes")
    assert not {"excluded", "tail_bounds"} & {f.name for f in fields(omega.TailConstants)}
    assert "tail_bounds" not in {f.name for f in fields(omega.ConstructionReport)}
    assert not hasattr(scan, "_ZETA_CHUNK")
    assert "chunk" not in inspect.signature(scan._run_scan).parameters
    assert "model" not in inspect.signature(scan._run_scan).parameters
    assert not {"_em_series", "_truncation", "_abs_sum", "log_zeta_derivs"} & set(vars(scan))
    assert scan._taylor_model is zeta_engine._taylor_model
    assert not hasattr(scan.Hit(tau=1.0, residuals=(0.1,)), "refined")
    assert "line" not in inspect.signature(zeta_engine._log_zeta_line_derivs).parameters


SOURCES = sorted(p for p in Path(zetascope.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    """Every module-level import is referenced."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def test_benchmark_spans_resolve():
    """Every (module, name) that perfbench/tracing.py wraps exists in zetascope."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, _ in tracing.SPANNED
               if not hasattr(importlib.import_module(f"zetascope.{module}"), name)]
    assert tracing.SPANNED and missing == []


def test_scipy_stays_off_the_import_path():
    """Importing the package and evaluating zeta loads no scipy; only
    chi_factor, siegel_theta and what calls them import it."""
    src = str(Path(zetascope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, zetascope; zetascope.zeta(2.0); print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
