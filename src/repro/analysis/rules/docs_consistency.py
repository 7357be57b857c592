"""RA007 — the documentation tree must track the code tree.

Two checks, both dependency-free:

1. **Architecture coverage** — the four core docs pages
   (``architecture``, ``serving``, ``protocol``, ``benchmarking``)
   exist and are linked from ``README.md``, and every ``repro.*``
   subpackage is mentioned in ``docs/architecture.md``.  A PR that adds
   a subsystem without documenting it fails here.

2. **Public docstring floor** — every public module, class, function
   and method in the documented API packages (``repro.api``,
   ``repro.backend``, ``repro.serve``, ``repro.gateway``,
   ``repro.analysis``) carries a docstring.

The rule runs as a *project* check and gates itself on the repo layout
(``docs/`` and ``src/repro`` both present under the analysis root), so
analyzing a loose file or a fixture tree never trips it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable
import ast

from repro.analysis.engine import (
    ProjectContext,
    Rule,
    Violation,
    register_rule,
)

#: Packages whose public surface must be fully docstring'd.
DOCSTRING_PACKAGES = (
    "api", "backend", "serve", "gateway", "analysis", "obs",
)

#: Core docs pages that must exist and be linked from the README.
DOCS_PAGES = (
    "architecture.md",
    "serving.md",
    "protocol.md",
    "benchmarking.md",
    "observability.md",
)


def repro_subpackages(root: Path) -> list[str]:
    """Names of every ``repro.*`` subpackage (directories with inits)."""
    tree = root / "src" / "repro"
    return sorted(
        path.name
        for path in tree.iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    )


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_overload_stub(node: ast.AST) -> bool:
    """``@overload``/``@typing.overload`` stubs carry no body to document;
    the implementation right below them holds the docstring."""
    decorators = getattr(node, "decorator_list", [])
    return any(
        (isinstance(dec, ast.Name) and dec.id == "overload")
        or (isinstance(dec, ast.Attribute) and dec.attr == "overload")
        for dec in decorators
    )


def missing_docstrings(tree: ast.Module, relative: str) -> list[Violation]:
    """Docstring-floor findings for one parsed module."""
    problems: list[Violation] = []

    def report(line: int, message: str) -> None:
        problems.append(
            Violation(
                rule=DocsConsistencyRule.code,
                path=relative,
                line=line,
                message=message,
            )
        )

    if ast.get_docstring(tree) is None:
        report(1, "module docstring missing")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                report(node.lineno, f"class {node.name} has no docstring")
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    if (
                        _is_public(child.name)
                        and ast.get_docstring(child) is None
                        and not _is_overload_stub(child)
                    ):
                        report(
                            child.lineno,
                            f"method {node.name}.{child.name} has no "
                            f"docstring",
                        )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (
                _is_public(node.name)
                and ast.get_docstring(node) is None
                and not _is_overload_stub(node)
            ):
                report(
                    node.lineno, f"function {node.name} has no docstring"
                )
    return problems


class DocsConsistencyRule(Rule):
    """Architecture coverage + public docstring floor, repo-wide."""

    code = "RA007"
    summary = (
        "docs pages must exist, be linked from README, mention every "
        "repro.* subpackage; public API surfaces need docstrings"
    )

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        """Run both docs checks when the analysis root is the repo."""
        root = project.root
        if not (root / "docs").is_dir() or not (root / "src" / "repro").is_dir():
            return []
        found: list[Violation] = []
        found.extend(self._architecture_coverage(root))
        found.extend(self._docstring_floor(root))
        return found

    def _architecture_coverage(self, root: Path) -> Iterable[Violation]:
        docs = root / "docs"
        for page in DOCS_PAGES:
            if not (docs / page).exists():
                yield Violation(
                    rule=self.code,
                    path=f"docs/{page}",
                    line=1,
                    message="core docs page is missing",
                )
        readme_path = root / "README.md"
        if readme_path.exists():
            readme = readme_path.read_text(encoding="utf-8")
            for page in DOCS_PAGES:
                if f"docs/{page}" not in readme:
                    yield Violation(
                        rule=self.code,
                        path="README.md",
                        line=1,
                        message=f"does not link docs/{page}",
                    )
        architecture_path = docs / "architecture.md"
        if architecture_path.exists():
            architecture = architecture_path.read_text(encoding="utf-8")
            for name in repro_subpackages(root):
                if f"repro.{name}" not in architecture:
                    yield Violation(
                        rule=self.code,
                        path="docs/architecture.md",
                        line=1,
                        message=f"does not mention repro.{name}",
                    )

    def _docstring_floor(self, root: Path) -> Iterable[Violation]:
        for package in DOCSTRING_PACKAGES:
            tree_root = root / "src" / "repro" / package
            if not tree_root.is_dir():
                continue
            for path in sorted(tree_root.rglob("*.py")):
                relative = str(path.relative_to(root))
                try:
                    tree = ast.parse(
                        path.read_text(encoding="utf-8"), filename=relative
                    )
                except SyntaxError:
                    continue  # reported by the runner as RA000
                yield from missing_docstrings(tree, relative)


register_rule(DocsConsistencyRule())
