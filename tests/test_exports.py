"""A guard against dead code: every function the package exports is used."""

import inspect
import re
from collections import Counter
from pathlib import Path

import klazar

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_function_is_named_outside_its_def():
    # src/ without the export list itself, and the tests
    files = [p for p in (ROOT / "src" / "klazar").glob("*.py") if p.name != "__init__.py"]
    text = "\n".join(p.read_text() for p in files + sorted((ROOT / "tests").glob("*.py")))
    names, defs = Counter(re.findall(r"\w+", text)), Counter(re.findall(r"\bdef (\w+)\(", text))
    unused = [name for name in klazar.__all__
              if callable(getattr(klazar, name)) and not inspect.isclass(getattr(klazar, name))
              and names[name] <= defs[name]]
    assert unused == []
