"""End-to-end benchmark of the HerQules reproduction; see README.md.

Run from the repository root: ``python -m benchmark``.
"""

from __future__ import annotations

import os
import sys

#: The repository root: the directory holding ``benchmark/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from an
    installed copy; raise when the checkout has no source."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FileNotFoundError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
