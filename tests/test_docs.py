"""README's "Fixed constants" table names only constants that exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def fixed_constants():
    """The `module.NAME` of each row of the "Fixed constants" table."""
    section = README.read_text(encoding="utf-8").split("\n## Fixed constants\n")[1]
    section = section.split("\n## ")[0]
    return re.findall(r"^\| `(\w+)\.(\w+)` \|", section, flags=re.MULTILINE)


def test_fixed_constants_resolve():
    constants = fixed_constants()
    assert len(constants) >= 5
    for module, name in constants:
        assert hasattr(importlib.import_module(f"floydlab.{module}"), name), (
            f"README documents {module}.{name}, which floydlab.{module} lacks")
