"""Locate the checkout and put its cusplab source on the import path."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_source():
    """Import cusplab from <checkout>/src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cusplab", "__init__.py")):
        raise SystemExit("perfbench: no cusplab source under %s" % SRC)
    sys.path.insert(0, SRC)
