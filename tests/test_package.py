"""The package's public surface."""

import ast
import re
from pathlib import Path

import pimgasm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pimgasm"


def test_all_names_resolve_once():
    names = pimgasm.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(pimgasm, n)] == []


def public_defs(path: Path) -> list[str]:
    """The public functions and methods a module defines: its top-level
    functions and the methods of its top-level classes, leaving out dunders
    and names that start with an underscore."""
    names = []
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not item.name.startswith("_"):
                    names.append(item.name)
    return names


def test_every_public_function_is_called_by_the_program():
    """Every public function or method of src/pimgasm/*.py is named
    somewhere other than its own `def`: in the package's code (not its
    __init__.py, which only re-exports), in perfbench/, or in the
    acceptance tests. Unit tests alone keep no API alive.

    The match is by word, so a name that something else shares (`to_json`,
    `items`, `to_dict`) passes even when the method itself is dead; the
    guard catches only names that nothing mentions at all.
    """
    corpus = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    corpus += sorted((ROOT / "perfbench").glob("*.py"))
    corpus.append(ROOT / "tests" / "test_acceptance.py")
    # drop the name of every def, so a def does not count as a use
    text = "\n".join(re.sub(r"\bdef\s+\w+", "def", p.read_text()) for p in corpus)
    used = set(re.findall(r"\w+", text))
    unused = [
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in public_defs(path)
        if name not in used
    ]
    assert unused == []
