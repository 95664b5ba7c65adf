#!/usr/bin/env python3
"""Entry point of the OLxP benchmark; see ``olxp_run`` and README.md."""

import sys
from pathlib import Path

# the checkout's own sources, ahead of any installed copy of the package
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from olxp_run import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
