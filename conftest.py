"""Pytest root configuration.

Ensures ``src/`` is importable even when the package has not been
pip-installed (e.g. in offline environments where editable installs
cannot build wheels).

Registers the ``deep`` hypothesis profile. The default run keeps
hypothesis's own default profile; ``--hypothesis-profile=deep`` drives
the fast-path-versus-oracle property tests (the ones whose
``@settings`` leave ``max_examples`` to the profile) ten times harder.
"""

import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("deep", max_examples=1000, deadline=None)
