"""The package exports the pipeline, and the oracles stay in the tests.

``sparsecount.__all__`` must be the list the README's Library section
gives, importing the package must not load the materialized product,
and no name that moved to ``tests/oracles.py`` may be reachable from any
``sparsecount`` module, so no production path can call an oracle.
"""

import re
import subprocess
import sys
from pathlib import Path

import sparsecount

ROOT = Path(__file__).resolve().parent.parent

MOVED = ("HomMap", "CountDict", "enumerate_root_homs", "bressan_count",
         "brute_force_hom_wl", "validate_fraternity",
         "validate_decomposition", "down_reach", "pattern_product",
         "plain_labels", "canonical_form", "frat_classes")


def _readme_exports() -> list[str]:
    text = (ROOT / "README.md").read_text()
    tail = text.split("`sparsecount.__all__` holds exactly these names", 1)[1]
    block = re.search(r"```text\n(.*?)```", tail, re.S).group(1)
    return re.findall(r"[A-Za-z_]\w*", block)


def test_all_is_the_readme_list():
    listed = _readme_exports()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(sparsecount.__all__)


def test_import_loads_no_product_module():
    script = ("import sys; sys.path.insert(0, {src!r}); import sparsecount; "
              "print('sparsecount.product' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", script.format(src=str(ROOT / "src"))],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_module_carries_a_moved_name():
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sparsecount" or name.startswith("sparsecount.")]
    assert len(modules) > 1
    found = [f"{m.__name__}.{name}" for m in modules for name in MOVED
             if hasattr(m, name)]
    found += [f"DirWLGraph.{name}" for name in ("labels", "fibers")
              if hasattr(sparsecount.DirWLGraph, name)]
    found += [f"HubTree.{name}" for name in ("path",)
              if hasattr(sparsecount.HubTree, name)]
    assert found == []
