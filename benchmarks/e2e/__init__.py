"""End-to-end datagridflow benchmark; see ``README.md`` in this directory.

Importing the package puts the repository's ``src`` directory on
``sys.path``, so ``python -m benchmarks.e2e`` runs from the repository
root without an installed package.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
