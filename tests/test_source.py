"""Checks on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import rentlab

PACKAGE_DIR = Path(rentlab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CHECKER = ROOT / "checker" / "rentcheck.py"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``from __future__`` is skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_unused_imports_finds_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "import json as js\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = js.loads('1')\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: field"]


def test_modules_import_no_unused_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 1
    dead = {
        path.name: found
        for path in modules
        if path.name != "__init__.py"
        for found in [unused_imports(path.read_text())]
        if found
    }
    assert dead == {}


# Test-only dependencies the package does not declare: a test module reaches
# them through ``pytest.importorskip``, so the suite runs without them.
OPTIONAL = {"hypothesis", "pytest_benchmark"}


def imports_of(source: str, roots) -> list[str]:
    """``import`` statements, at any depth, that load a module under ``roots``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[0] in roots
        ]
    return found


def test_optional_imports_finds_import_statements():
    source = (
        "import pytest\n"
        "import hypothesis.strategies as st\n"
        "from pytest_benchmark import plugin\n"
        "import hypothesis_extra, json\n"
        "def test_property():\n"
        "    from hypothesis import given\n"
        "    hypothesis = pytest.importorskip('hypothesis')\n"
    )
    assert imports_of(source, OPTIONAL) == [
        "line 2: hypothesis.strategies",
        "line 3: pytest_benchmark",
        "line 6: hypothesis",
    ]


def test_tests_reach_optional_modules_through_importorskip():
    modules = sorted(Path(__file__).parent.glob("*.py"))
    assert Path(__file__) in modules
    found = {
        path.name: hits
        for path in modules
        for hits in [imports_of(path.read_text(), OPTIONAL)]
        if hits
    }
    assert found == {}


# Modules through which a draw could go around generators._units
DRAW_MODULES = {"random", "_random", "hashlib", "_hashlib"}


def test_modules_draw_only_through_the_block_reader():
    # every draw is read from blocks that generators._units hashes, the seam
    # that the trial_reads fixture records; a module that imports random or
    # hashlib could draw around it
    source = (
        "import random\nfrom _random import Random\nimport hashlib\n"
        "def f():\n    from random import choice\n"
    )
    assert imports_of(source, DRAW_MODULES) == [
        "line 1: random", "line 2: _random", "line 3: hashlib", "line 5: random",
    ]
    found = {
        path.name: hits
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for hits in [imports_of(path.read_text(), DRAW_MODULES)]
        if hits
    }
    assert found == {}


def statements_reading(source: str, names) -> list[str]:
    """The module-level statements that read one of ``names`` (as
    ``names_read`` counts a read), each by what it defines: a function or
    class name, the names it assigns, ``import`` (``import as x`` where it
    renames), or else its line."""
    found = []
    for node in ast.parse(source).body:
        if not names_read(node) & names:
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.Assign):
            found += [leaf.id for target in node.targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"import as {alias.asname}" if alias.asname else "import"
                      for alias in node.names]
        else:
            found.append(f"line {node.lineno}")
    return found


def test_blocks_are_hashed_only_in_the_block_reader():
    # blake2b is called only to salt the states that generators._units
    # copies, and they are read only there, the seam that the trial_reads
    # fixture records, so no read path goes around it
    source = (
        "from _blake2 import blake2b\nfrom _blake2 import blake2b as b2\n"
        "STATES = (blake2b(),)\n"
        "def f(x):\n    return STATES[0].copy(), b2(x)\n"
        "class C:\n    h = staticmethod(blake2b)\n"
        "blake2b(b'')\n"
    )
    assert statements_reading(source, {"blake2b", "STATES"}) == [
        "import", "import as b2", "STATES", "f", "C", "line 8",
    ]
    found = {
        path.stem: hits
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for hits in [statements_reading(path.read_text(),
                                        {"blake2b", "_SaltedStates", "_SALTED"})]
        if hits
    }
    assert found == {"generators": ["import", "_SaltedStates", "_SALTED", "_units"]}


def test_import_loads_neither_hashlib_nor_random():
    # the trial reader needs _blake2 alone: hashlib would load OpenSSL, about
    # 3.6 MiB of resident memory, and random is left unused; -S keeps out
    # what site imports on its own, which may include random
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, rentlab, rentlab.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "rentlab.cli" in loaded
    assert not {"hashlib", "_hashlib", "random"} & set(loaded)


def names_read(tree: ast.AST) -> set:
    """Names a module reads: loaded names, attributes and ``from`` imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(sources: dict) -> list[str]:
    """Module-level ``_name`` definitions that no module in ``sources`` reads.

    ``sources`` maps module names to their source.  A definition is a
    function, a class or an assignment at module level; dunder names are
    skipped.  A read is a loaded name, an attribute or a ``from`` import.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    leaf.id
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                ]
            else:
                names = []
            defined += [
                (module, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        read |= names_read(tree)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_dead_private_names_finds_orphans():
    sources = {
        "a": (
            "_used = 1\n"
            "_orphan, _pair = 2, 3\n"
            "__dunder__ = 4\n"
            "def _helper(): return _used + _pair\n"
            "class _Shadow: pass\n"
            "_typed: int = 5\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(a._typed)\n",
    }
    assert dead_private_names(sources) == ["a: _orphan", "a: _Shadow"]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert len(sources) > 1
    assert dead_private_names(sources) == []


def orphan_exports(init_source: str, sources: dict, library: str) -> list[str]:
    """Names ``init_source`` imports that no module of ``sources`` reads and
    that ``library`` (README text) never names in code.

    A read is one ``dead_private_names`` counts, or a string constant equal
    to the name, which is how the benchmark's tracer names what it wraps.
    Code is an inline code span or a fenced block.
    """
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    read = set()
    for source in sources.values():
        tree = ast.parse(source)
        read |= names_read(tree)
        read.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    code = re.findall(r"```.*?```|`[^`\n]*`", library, re.S)
    read.update(word for span in code for word in re.findall(r"\w+", span))
    return [name for name in exported if name not in read]


def test_orphan_exports_finds_orphans():
    init = (
        "from .a import used, traced, shown, fenced, prose, orphan\n"
        "__version__ = '1'\n"
    )
    sources = {
        "a": "def used(): pass\ndef orphan(): pass\n",
        "b": "from .a import used\n",
        "spans": "TRACED = {'a': ('traced', 'two words')}\n",
    }
    library = (
        "Call `shown(x)`; prose and orphan are only words here.\n"
        "```python\nfenced()\n```\n"
    )
    assert orphan_exports(init, sources, library) == ["prose", "orphan"]


def test_package_exports_are_read_or_documented():
    sources = {
        path: path.read_text()
        for path in [*PACKAGE_DIR.glob("*.py"), *SPANS.parent.glob("*.py")]
        if path.name != "__init__.py"
    }
    assert SPANS in sources
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    init = (PACKAGE_DIR / "__init__.py").read_text()
    assert orphan_exports(init, sources, library) == []


def traced_names(source: str) -> dict:
    """The ``TRACED`` table of the benchmark tracer, read from its source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment")


def test_benchmark_traces_existing_functions():
    # the tracer looks each name up in its rentlab module, so a rename here
    # would only fail a benchmark run
    traced = traced_names(SPANS.read_text())
    assert set(traced) >= {"model", "algorithms", "optimal", "cli"}
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for module in [importlib.import_module(f"rentlab.{layer}")]
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def nonstandard_imports(source: str) -> list[str]:
    """``import`` statements, at any depth, that load a module outside the
    standard library; a relative import is outside it too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_nonstandard_imports_finds_every_outside_module():
    source = (
        "import json, rentlab.model\n"
        "from fractions import Fraction\n"
        "from . import model\n"
        "def f():\n"
        "    from rentlab import cost\n"
        "    import pytest as pt\n"
    )
    assert nonstandard_imports(source) == [
        "line 1: rentlab.model",
        "line 3: .",
        "line 5: rentlab",
        "line 6: pytest",
    ]


def test_reference_model_imports_only_the_standard_library():
    # the tests compare rentlab with it, so it must not reach rentlab itself
    assert nonstandard_imports(CHECKER.read_text()) == []
