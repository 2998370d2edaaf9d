"""The CLI tests run totreal in child processes; put src on their
PYTHONPATH, as pythonpath in pyproject.toml puts it on pytest's sys.path,
so that a plain `python -m pytest` needs no environment set up."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
