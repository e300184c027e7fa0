"""`import parahom` loads only the scipy that every run uses.

scipy.ndimage loads on the first cone scan, and scipy.integrate (which
pulls in scipy.optimize) and scipy.special on the first images-oracle call,
so `parahom cell` and `parahom homogenize` never load them.  Point reads
of a field (`ScalarField.value_at`, `greens_function`) never load
scipy.interpolate, which only tabulated graphs use.  The package imports
no scipy subpackage beyond those README's import list names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.ndimage", "scipy.integrate", "scipy.optimize",
            "scipy.special")
# the subpackages README's import list names
NAMED = {"scipy.sparse", "scipy.sparse.linalg", "scipy.ndimage",
         "scipy.integrate", "scipy.special", "scipy.interpolate"}


def _scipy_imports(path):
    """Every scipy module an import statement of path names, eager or not."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] if node.module != "scipy" else \
                [f"scipy.{alias.name}" for alias in node.names]
        else:
            continue
        yield from (n for n in names if n.split(".")[0] == "scipy")


def test_scipy_imports_are_the_ones_readme_names():
    found = {f"{path.name}: {name}"
             for path in sorted((SRC / "parahom").glob("*.py"))
             for name in _scipy_imports(path) if name not in NAMED}
    assert sorted(found) == []


def test_import_leaves_deferred_scipy_unloaded():
    code = ("import sys\nimport parahom\nimport parahom.cli\n"
            f"print(*[m for m in {DEFERRED!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == []


def test_point_reads_leave_scipy_interpolate_unloaded():
    # value_at and greens_function read through the probe weights alone
    code = (
        "import sys\nimport numpy as np\n"
        "from parahom.coeffs import preset\n"
        "from parahom.geometry import GraphDomain, ParabolicPoint\n"
        "from parahom.pde import ScalarField, halfspace\n"
        "from parahom import potential\n"
        "g = halfspace([-1.0], [1.0], 1.0, 0.0, 1.0, (4, 2), 2)\n"
        "ScalarField(g, np.zeros((3, 4, 2))).value_at([0.1, 0.5], 0.3)\n"
        "pole = ParabolicPoint([0.0, 1.0], 0.0)\n"
        "potential._GREEN_CELLS, potential._GREEN_STEPS = 4.0, 16.0\n"
        "potential.greens_function(preset('constant', d=2),"
        " GraphDomain(m=0.0, box=((-8.0, 8.0),)), pole,"
        " ParabolicPoint([0.5, 0.5], 0.5))\n"
        "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False"]
