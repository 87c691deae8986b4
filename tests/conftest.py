"""Child processes started by the tests import privqa from this checkout's src.

`--hypothesis-profile=ci` runs the field-type laws in tests/test_cli.py and
the exactness law in tests/test_scorer.py on many more examples than tier-1
gives them; a test that sets its own `max_examples` keeps it.
"""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("ci", max_examples=400)
