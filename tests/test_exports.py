"""Every name a buchi4 module exports resolves, and importing the package
loads only what its eager names need."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import buchi4


def run_fresh(code: str) -> str:
    """stdout of code run in a new interpreter that imports this buchi4."""
    src = str(Path(buchi4.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_every_name_in_all_resolves():
    modules = [
        name for _, name, _ in pkgutil.iter_modules(buchi4.__path__, "buchi4.")
    ]
    assert {"buchi4.poly", "buchi4.families", "buchi4.search", "buchi4.cli"} <= set(modules)
    for name in ["buchi4", *modules]:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, (name, missing)
        assert len(set(exported)) == len(exported), name


def test_import_leaves_unused_modules_unloaded():
    out = run_fresh(
        "import sys, buchi4\n"
        "print(*sorted(m for m in sys.modules if m.startswith('buchi4.')))"
    )
    loaded = set(out.split())
    assert "buchi4.families" in loaded
    unused = {"curves", "search", "verify", "factorint", "cli"}
    assert not loaded & {f"buchi4.{name}" for name in unused}


def test_setup_and_records_load_neither_dataclasses_nor_inspect():
    # the benchmark's set-up sequence, then the two modules it leaves out
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    out = run_fresh(
        run.SETUP_CODE
        + "import sys, buchi4.search, buchi4.curves\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    assert out.splitlines()[-1] == "False False"


def test_lazy_names_resolve_on_access_star_import_and_dir():
    out = run_fresh(
        "import buchi4\n"
        "from buchi4 import curves\n"
        "assert buchi4.curve_rhs is curves.curve_rhs\n"
        "names = {}\n"
        "exec('from buchi4 import *', names)\n"
        "print(all(n in names for n in buchi4.__all__),"
        " set(buchi4.__all__) <= set(dir(buchi4)))"
    )
    assert out.split() == ["True", "True"]


def test_cli_classify_loads_neither_search_nor_curves():
    out = run_fresh(
        "import sys\n"
        "from buchi4.cli import main\n"
        "code = main(['classify', '59', '630', '889', '1088'])\n"
        "print(code, 'buchi4.search' in sys.modules, 'buchi4.curves' in sys.modules)"
    )
    assert out.splitlines() == ["Sporadic", "0 False False"]
