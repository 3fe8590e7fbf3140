"""Every module under ``src/repro`` is something the system runs.

The walk starts from the code that is not a test: every file under
``benchmarks/`` and ``examples/``, and every ``python -m`` entry point
(``src/repro/**/__main__.py``). It follows each ``import`` it finds in a
reached module, the ones inside functions included; imports under
``if TYPE_CHECKING:`` never run, so they are not followed.

Importing a module runs its packages' ``__init__`` files. An ``__init__``
that only re-exports (a docstring, imports and dunder assignments) counts
only for the names a caller takes from it, by ``from package import name``
or by ``package.name``; one with code of its own (``chaos.SCENARIOS``) is
followed in full. A module only tests import belongs under ``tests/``.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _modules() -> dict[str, Path]:
    """Dotted name -> file, for every module of the package."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _modules()


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@cache
def _reexports_only(name: str) -> bool:
    if not _is_package(name):
        return False
    for index, stmt in enumerate(_tree(MODULES[name]).body):
        docstring = index == 0 and isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        )
        dunder = isinstance(stmt, ast.Assign) and all(
            isinstance(t, ast.Name) and t.id.startswith("__") for t in stmt.targets
        )
        if not (docstring or dunder or isinstance(stmt, (ast.Import, ast.ImportFrom))):
            return False
    return True


def _imports(body: list[ast.stmt]):
    """Every import statement in ``body``, however deeply nested, except
    those under ``if TYPE_CHECKING:``."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
            continue
        test = stmt.test if isinstance(stmt, ast.If) else None
        if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
            yield from _imports(stmt.orelse)
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _imports(getattr(stmt, field, []))
        for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _imports(part.body)


def _dotted(node: ast.AST) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _absolute(level: int, module: str | None, importer: str) -> str:
    if not level:
        return module or ""
    if importer not in MODULES:
        return ""  # a script's relative import never reaches the package
    base = importer.split(".")
    base = base if _is_package(importer) else base[:-1]
    base = base[: len(base) - level + 1]
    return ".".join(base + ([module] if module else []))


class Walk:
    def __init__(self) -> None:
        self.reached: set[str] = set()
        self._followed: set[str] = set()

    def reach(self, name: str) -> None:
        """Run module ``name``: its packages' ``__init__`` first, then it."""
        parts = name.split(".")
        for depth in range(1, len(parts)):
            self._run(".".join(parts[:depth]))
        self._run(name)

    def take(self, package: str, attr: str) -> None:
        """``from package import attr`` (or ``package.attr``)."""
        if f"{package}.{attr}" in MODULES:
            self.reach(f"{package}.{attr}")
            return
        self.reach(package)
        if not _reexports_only(package):
            return  # a module, or an __init__ followed in full
        for stmt in _tree(MODULES[package]).body:
            if isinstance(stmt, ast.ImportFrom):
                source = _absolute(stmt.level, stmt.module, package)
                for alias in stmt.names:
                    if alias.name == "*" or attr == (alias.asname or alias.name):
                        self._take_from(source, alias.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if attr == bound and alias.name in MODULES:
                        self.reach(alias.name)

    def _take_from(self, source: str, attr: str) -> None:
        if source not in MODULES:
            return  # outside the package
        if attr != "*":
            self.take(source, attr)
            return
        self.reach(source)
        if _reexports_only(source):
            for stmt in _tree(MODULES[source]).body:
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    self._follow_import(stmt, source, _tree(MODULES[source]))

    def _run(self, name: str) -> None:
        self.reached.add(name)
        if name in self._followed or _reexports_only(name):
            return
        self._followed.add(name)
        self.follow(_tree(MODULES[name]), name)

    def follow(self, tree: ast.Module, importer: str) -> None:
        """Follow every import ``tree`` runs, as module ``importer``."""
        for node in _imports(tree.body):
            self._follow_import(node, importer, tree)

    def _follow_import(self, node: ast.AST, importer: str, tree: ast.Module) -> None:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node.level, node.module, importer)
            for alias in node.names:
                self._take_from(source, alias.name)
            return
        for alias in node.names:
            if alias.name not in MODULES:
                continue
            self.reach(alias.name)
            # names taken by attribute: ``pkg.mod.attr`` or ``alias.attr``
            prefix = (alias.asname or alias.name) + "."
            for sub in ast.walk(tree):
                dotted = _dotted(sub) if isinstance(sub, ast.Attribute) else None
                if dotted and dotted.startswith(prefix):
                    self.take(alias.name, dotted[len(prefix):].partition(".")[0])


def unreached() -> list[str]:
    """The modules no benchmark, example or ``python -m`` CLI reaches."""
    walk = Walk()
    for directory in ("benchmarks", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            walk.follow(_tree(path), "__main__")
    for name in MODULES:
        if name.endswith(".__main__"):
            walk.reach(name)
    return sorted(set(MODULES) - walk.reached)


def test_every_module_is_reached_from_a_non_test_caller():
    assert unreached() == []


def test_the_walk_sees_lazy_imports_and_skips_type_checking_ones():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.replication.group import KernelGroup\n"
        "def later():\n"
        "    from repro.bayes import Factor\n"
    )
    walk = Walk()
    walk.follow(ast.parse(source), "__main__")
    assert "repro.bayes.factor" in walk.reached
    assert "repro.bayes" in walk.reached
    assert "repro.bayes.cpd" not in walk.reached  # a re-export nobody took
    assert "repro.replication.group" not in walk.reached


# ---------------------------------------------------------------------------
# def level: every function is something reached code names
# ---------------------------------------------------------------------------

#: Defs no reached non-test code names yet. It may only shrink: a def that
#: gains a caller, or goes, leaves this list too. First the per-frame and
#: whole-signal oracles of the chunked kernels and test-only helpers
#: (ROADMAP item 13), then the entry points tests drive runtime code through.
ORPHANS_ALLOWED = {
    "repro.audio.features:frame_entropy",
    "repro.audio.features:mfcc",
    "repro.audio.features:zero_crossing_rate",
    "repro.audio.filters:bandpass",
    "repro.check.moacheck:check_expr",
    "repro.cobra.catalog:KnowledgeCatalog.domains",
    "repro.dbn.compiled:project_onto_clusters",
    "repro.faults.plans:install_global",
    "repro.fusion.discretize:soft_evidence",
    "repro.hmm.algorithms:viterbi",
    "repro.monet.bat:new_bat",
    "repro.synth.audio_synth:smooth_slots",
    "repro.video.flyout:dust_fraction",
    "repro.video.flyout:sand_fraction",
    "repro.video.motion:frame_difference",
    "repro.video.motion:motion_histogram",
    "repro.video.replay:wipe_band_score",
    "repro.video.semaphore:semaphore_score",
    # test entry points
    "repro.check.diagnostics:DiagnosticReport.codes",
    "repro.monet.bat:BAT.head_positions",
    "repro.monet.kernel:MonetKernel.command_names",
    "repro.monet.kernel:MonetKernel.command_signatures",
    "repro.monet.kernel:MonetKernel.register_command",
    "repro.sharding.fleet:ShardCoverageReport.from_dict",
    "repro.sharding.fleet:ShardedKernel.mark_dead",
    "repro.sharding.fleet:ShardedKernel.migrate_document",
    "repro.sharding.ring:HashRing.successors",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants in ``tree``: prose, not code."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _exports(tree: ast.AST) -> set[int]:
    """ids of the string constants listed in an ``__all__``."""
    return {
        id(element)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in ast.walk(node.value)
    }


def _mentions(tree: ast.AST) -> set[str]:
    """Every name ``tree`` uses: names, attributes, and the words of its
    string constants (MIL calls PROCs and commands by name). Importing or
    exporting a name is not a use; docstrings are prose."""
    skipped = _docstrings(tree) | _exports(tree)
    words: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skipped:
                words.update(_WORD.findall(node.value))
    return words


def _defs(tree: ast.Module, module: str):
    """``module:qualname`` and bare name of every def, except dunders and
    the members of a ``Protocol`` (declarations, not code)."""

    def walk(body, prefix):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                if any(_dotted(base) in ("Protocol", "typing.Protocol") for base in stmt.bases):
                    continue
                yield from walk(stmt.body, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                    yield f"{module}:{prefix}{stmt.name}", stmt.name
                yield from walk(stmt.body, f"{prefix}{stmt.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    yield from walk(getattr(stmt, field, []), prefix)

    yield from walk(tree.body, "")


def orphaned_defs() -> set[str]:
    """The defs under ``src/repro`` whose name no reached non-test code
    (a reached module, a benchmark, an example) mentions."""
    walk = Walk()
    sources = []
    for directory in ("benchmarks", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            walk.follow(_tree(path), "__main__")
            sources.append(_tree(path))
    for name in MODULES:
        if name.endswith(".__main__"):
            walk.reach(name)
    sources.extend(_tree(MODULES[name]) for name in sorted(walk.reached))
    mentioned = set().union(*map(_mentions, sources))
    return {
        qualified
        for module, path in MODULES.items()
        for qualified, name in _defs(_tree(path), module)
        if name not in mentioned
    }


def test_every_def_is_named_by_reached_code():
    assert sorted(orphaned_defs()) == sorted(ORPHANS_ALLOWED)


def test_the_def_scan_skips_docstrings_dunders_and_protocol_members():
    tree = ast.parse(
        "from typing import Protocol\n"
        "class Surface(Protocol):\n"
        "    def declared(self): ...\n"
        "class Thing:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): return 'spelled()'\n"
        "    def lonely(self):\n"
        "        '''Only prose names used and spelled here.'''\n"
        "Thing().used()\n"
    )
    defs = dict(_defs(tree, "m"))
    assert sorted(defs) == ["m:Thing.lonely", "m:Thing.used"]
    assert {"spelled", "used"} <= _mentions(tree)
    assert "lonely" not in _mentions(tree)
