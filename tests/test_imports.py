"""`import parahom` loads only the scipy that every run uses.

scipy.ndimage loads on the first cone scan, and scipy.integrate (which
pulls in scipy.optimize) and scipy.special on the first images-oracle call,
so `parahom cell` and `parahom homogenize` never load them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.ndimage", "scipy.integrate", "scipy.optimize",
            "scipy.special")


def test_import_leaves_deferred_scipy_unloaded():
    code = ("import sys\nimport parahom\nimport parahom.cli\n"
            f"print(*[m for m in {DEFERRED!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == []
