"""The package's lazy export table (PEP 562 module `__getattr__`)."""

import os
import subprocess
import sys
from pathlib import Path

import near2


def _python(code: str) -> str:
    """stdout of `code` in a fresh interpreter that imports this near2."""
    env = {**os.environ, "PYTHONPATH": str(Path(near2.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env
    ).stdout


def test_every_public_name_resolves_and_star_import_binds_them_all():
    assert len(near2.__all__) == len(set(near2.__all__)) == 42
    for name in near2.__all__:
        value = getattr(near2, name)
        assert value is getattr(sys.modules[value.__module__], name)
    namespace = {}
    exec("from near2 import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(near2.__all__)
    assert set(near2.__all__) <= set(dir(near2))


def test_submodules_resolve_after_a_bare_import_and_unknown_names_do_not():
    code = (
        "import near2\n"
        "assert near2.index.search_exact is near2.search_exact\n"
        "assert near2.trainer.train is near2.train\n"
        "assert not hasattr(near2, 'no_such_name')\n"
    )
    _python(code)


def test_importing_the_index_loads_no_training_or_evaluation_module():
    loaded = _python("import sys, near2.index\nprint(*sys.modules, sep='\\n')").split()
    assert "near2.index" in loaded
    for name in ("trainer", "losses", "metrics", "data"):
        assert f"near2.{name}" not in loaded
