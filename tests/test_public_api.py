"""Every public module-level function and class of the package has a caller.

A name counts as called when the program, the scripts or the benchmark refer
to it anywhere outside its own definition and the package's re-exports.
Tests do not count: nothing public exists only for its own tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphmem.retrieval import load_corpus

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "graphmem"
CALLER_DIRS = ("src", "scripts", "perfbench")

# Documented library entry points with no caller inside the repository.
ALLOWED = {
    "masked_objective": "the trainer-side objective value; the external trainer calls it",
    "serialize_action": "the wire form a remote policy emits; README documents it",
}


def _public_definitions() -> dict[str, str]:
    names = {}
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "__init__.py":
            continue
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                names[node.name] = module.name
    return names


def _referenced_names() -> set[str]:
    """Every identifier read as a name or an attribute, or imported, in the
    caller directories; definitions themselves are not references."""
    seen = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    seen.update(alias.name for alias in node.names)
    return seen


def test_every_public_name_has_a_caller():
    referenced = _referenced_names()
    unused = sorted(
        f"{module}:{name}"
        for name, module in _public_definitions().items()
        if name not in referenced and name not in ALLOWED
    )
    assert unused == [], f"public names nothing calls: {unused}"


def test_allowlist_names_exist_and_stay_uncalled():
    definitions = _public_definitions()
    referenced = _referenced_names()
    for name in ALLOWED:
        assert name in definitions, f"{name} is allowlisted but no longer defined"
        assert name not in referenced, f"{name} now has a caller; drop it from ALLOWED"


def _type_rule_copies(tree: ast.AST) -> list[int]:
    """Lines that write the JSON type rule by hand: ``isinstance`` with
    ``bool`` among its types, or ``type(x) is int``, ``type(x) is not int``
    (or ``bool``)."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        ) or (
            isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(c, ast.Name) and c.id in ("int", "bool") for c in node.comparators)
        ):
            lines.append(node.lineno)
    return lines


def test_json_type_rule_is_written_once():
    """Whether a value is a bool, an int or a number is decided by
    ``canon.is_json_type`` alone; no other module writes the rule again."""
    copies = {
        module.name: lines
        for module in sorted(PACKAGE.glob("*.py"))
        if module.name != "canon.py"
        and (lines := _type_rule_copies(ast.parse(module.read_text(encoding="utf-8"))))
    }
    assert copies == {}, f"type rule written outside canon.py (module: lines): {copies}"
    # the scan finds each form it looks for
    for form in ("isinstance(x, bool)", "isinstance(x, (int, bool))", "type(x) is int",
                 "type(x) is not int", "type(x) is not bool"):
        assert _type_rule_copies(ast.parse(form)) == [1], form


def _hand_written_codecs(tree: ast.AST) -> list[str]:
    """Classes that define ``to_dict`` or ``from_dict`` without naming
    ``Record`` among their bases."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and not any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases)
        and any(
            isinstance(item, ast.FunctionDef) and item.name in ("to_dict", "from_dict")
            for item in node.body
        )
    ]


def test_every_saved_record_is_a_record():
    """A saved record's JSON form comes from ``canon.Record``'s codec; no
    class writes or reads its fields by hand."""
    found = {
        module.name: names
        for module in sorted(PACKAGE.glob("*.py"))
        if module.name != "canon.py"
        and (names := _hand_written_codecs(ast.parse(module.read_text(encoding="utf-8"))))
    }
    assert found == {}, f"classes with their own to_dict/from_dict (module: classes): {found}"
    # the scan finds each form it looks for
    for form in ("class A:\n def to_dict(self): pass", "class A(B):\n def from_dict(c): pass"):
        assert _hand_written_codecs(ast.parse(form)) == ["A"], form
    assert _hand_written_codecs(ast.parse("class A(Record):\n def to_dict(self): pass")) == []


def test_tracer_finds_every_name_it_rebinds():
    """The benchmark's tracer rebinds names in the program's modules (for
    example ``canonical_dumps`` in each module that imports it, and
    ``MemoryGraph.to_dict``); a name it cannot find fails its install.  A
    corpus loaded through the rebound ``cli.load_corpus`` runs the hook that
    reads the corpus's attributes."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import tracing; "
        "from graphmem import cli; rec = tracing.Recorder(); tracing.install(rec); "
        "cli.load_corpus('tests/fixtures/demo_corpus.json'); "
        "print(rec.counts['retrieval.index.units'], rec.counts['retrieval.index.bytes'])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    corpus = load_corpus(ROOT / "tests" / "fixtures" / "demo_corpus.json")
    assert result.stdout.split() == [str(len(corpus.units)), str(corpus.index.nbytes)]


@pytest.mark.parametrize(
    "script, line",
    [
        ("run_demo.py", "answer: Mira Chen, 2019  (reward 1)"),
        ("energy_dynamics.py", "  + 0 steps: omega=2.8169 (intrinsic 2.4562)"),
    ],
)
def test_script_runs(script, line):
    """The scripts count as callers above, so each must run: it exits 0
    and prints a line it is known for."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.split("\n")
