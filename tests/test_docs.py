"""The README's tolerance table against the constants in src/qeei."""

import ast
import importlib
import re
from pathlib import Path

import qeei

ROOT = Path(__file__).resolve().parents[1]
ROW = re.compile(r"^\| `(\w+)\.(\w+_TOL)` \| ([^|]+?) \|", re.M)


def documented():
    """{(module, name): value} from the README's tolerance table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {(mod, name): float(value) for mod, name, value in ROW.findall(text)}


def defined():
    """(module, name) of every module-level *_TOL assignment in qeei."""
    for path in Path(qeei.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in getattr(node, "targets", ()):  # plain assignments
                if isinstance(target, ast.Name) and target.id.endswith("_TOL"):
                    yield path.stem, target.id


def test_documented_values_are_the_constants():
    table = documented()
    # one row per constant; the count comes from the code, not a literal
    assert table and len(table) == len(set(defined()))
    for (mod, name), value in table.items():
        assert getattr(importlib.import_module(f"qeei.{mod}"), name) == value, name


def test_every_tolerance_constant_is_documented():
    assert set(defined()) <= set(documented())
