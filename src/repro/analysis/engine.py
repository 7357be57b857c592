"""The reprolint engine: rules, pragmas, the runner and its reports.

The repo's correctness story rests on invariants that ordinary tests
only catch when a test *happens* to exercise a violation: hot kernels
must dispatch through the :class:`~repro.backend.ArrayBackend` registry,
serving queues must be bounded, the gateway's asyncio loop must never
block, every module must be spawn-safe, protocol JSON must go through
the exact-float encoder, and lock-owning classes must mutate shared
state under their lock.  This module turns those conventions into
machine-checked rules.

Anatomy
-------

* :class:`Violation` — one finding: rule code, file, line, message.
* :class:`Rule` — the extension point.  A rule declares its ``code``
  (``"RAxxx"``), a one-line ``summary``, and implements
  :meth:`Rule.check_module` (per-file AST checks) and/or
  :meth:`Rule.check_project` (repo-level checks such as docs
  consistency).  Register instances with :func:`register_rule`; the
  bundled rules live in :mod:`repro.analysis.rules` and register on
  import.
* :class:`ModuleContext` / :class:`ProjectContext` — everything a rule
  may look at: source text, parsed AST, the module's dotted package
  path, the repo root.
* :func:`run_analysis` — collect violations over a set of files, apply
  pragma suppressions, and return the surviving findings.

Pragmas
-------

A violation can be suppressed *only with a written justification*::

    self._items = deque()  # repro: noqa[RA002] -- capacity enforced by BoundedQueue logic

suppresses rule RA002 on that line.  A whole file opts out of a rule
with a standalone comment line::

    # repro: noqa-file[RA001] -- gradient reference path, see module docstring

Both forms *require* the ``-- reason`` tail: a pragma without one is
itself reported (code ``RA000``), as is a pragma that suppresses
nothing (so stale opt-outs cannot accumulate silently).  Multiple codes
may share one pragma: ``noqa[RA002,RA006]``.

Running
-------

``python -m repro.analysis src/repro`` is the CI gate; see
:mod:`repro.analysis.__main__` for the CLI and ``docs/static-analysis.md``
for the rule catalog and the guide to adding a rule.
"""

from __future__ import annotations

import abc
import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Pragma grammar (see module docstring).  The ``--`` separated reason
#: is mandatory; its absence is reported as RA000.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<filewide>-file)?"
    r"\[(?P<codes>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)

#: The reserved code under which pragma misuse itself is reported.
PRAGMA_RULE_CODE = "RA000"


@dataclass(frozen=True)
class Violation:
    """One finding of one rule at one source location.

    Attributes:
        rule: the rule code, e.g. ``"RA002"``.
        path: repo-relative (or as-given) path of the offending file.
        line: 1-indexed source line the finding anchors to.
        message: human-readable statement of the violation.
    """

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """``path:line: CODE message`` — the text-report line."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        """JSON-report shape of this finding."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro: noqa`` comment."""

    line: int
    codes: tuple[str, ...]
    reason: str | None
    filewide: bool


@dataclass
class ModuleContext:
    """One Python file as a rule sees it.

    Attributes:
        path: filesystem path of the file.
        relative: the path as reported in violations (repo-relative
            when the file lives under the analysis root).
        package: dotted module path (``"repro.serve.queues"``) when the
            file lives under a recognizable ``repro`` tree, else the
            bare stem.  Rules scope themselves by prefix-matching this.
        source: full source text.
        tree: the parsed :class:`ast.Module`.
    """

    path: Path
    relative: str
    package: str
    source: str
    tree: ast.Module
    _lines: list[str] | None = field(default=None, repr=False)

    @property
    def lines(self) -> list[str]:
        """Source split into lines (lazily, cached)."""
        if self._lines is None:
            self._lines = self.source.splitlines()
        return self._lines

    def violation(self, rule: str, node_or_line, message: str) -> Violation:
        """Build a :class:`Violation` anchored at an AST node or line."""
        line = getattr(node_or_line, "lineno", node_or_line)
        return Violation(
            rule=rule, path=self.relative, line=int(line), message=message
        )

    def pragmas(self) -> list[Pragma]:
        """Every ``# repro: noqa`` pragma in this file, in line order.

        Only real comment tokens count — pragma *examples* inside
        docstrings or string literals are not pragmas.
        """
        found: list[Pragma] = []
        for number, text in _comment_tokens(self.source):
            match = PRAGMA_RE.search(text)
            if match is None:
                continue
            codes = tuple(
                code.strip()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            found.append(
                Pragma(
                    line=number,
                    codes=codes,
                    reason=match.group("reason"),
                    filewide=match.group("filewide") is not None,
                )
            )
        return found


def _comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """``(line, text)`` for every comment token in ``source``.

    Falls back to nothing on tokenize errors — the AST parse (which
    gates separately) is the authority on whether the file is valid.
    """
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return


@dataclass
class ProjectContext:
    """Repo-level view for rules that check more than one file.

    Attributes:
        root: the repository root (where ``README.md`` lives).
        modules: every analyzed :class:`ModuleContext`.
    """

    root: Path
    modules: list[ModuleContext]


class Rule(abc.ABC):
    """One mechanically checkable repo invariant.

    Subclasses set :attr:`code` and :attr:`summary` and override at
    least one of :meth:`check_module` / :meth:`check_project`.  Rules
    must be pure functions of their inputs — the engine may call them
    in any order, and the pragma layer (not the rule) decides what is
    reported.
    """

    #: Unique code, ``RA`` + 3 digits.  RA000 is reserved for pragma
    #: misuse reported by the engine itself.
    code: str = "RA999"

    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    def check_module(self, module: ModuleContext) -> Iterable[Violation]:
        """Per-file findings (default: none)."""
        return ()

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        """Repo-level findings (default: none)."""
        return ()


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register ``rule`` under its code (duplicate codes are an error)."""
    if not re.fullmatch(r"RA\d{3}", rule.code) or rule.code == PRAGMA_RULE_CODE:
        raise ValueError(f"invalid rule code {rule.code!r}")
    if rule.code in _RULES:
        raise ValueError(f"rule {rule.code} is already registered")
    _RULES[rule.code] = rule
    return rule


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by code.

    Importing :mod:`repro.analysis.rules` registers the bundled rules;
    the import lives here (not at module import) so the engine core
    stays usable for unit tests with a custom rule set.
    """
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return tuple(_RULES[code] for code in sorted(_RULES))


# --------------------------------------------------------------------------
# File discovery + context building
# --------------------------------------------------------------------------


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into the sorted set of ``*.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def module_package(path: Path) -> str:
    """Dotted package path of ``path`` under its ``repro`` tree.

    ``src/repro/serve/queues.py`` → ``repro.serve.queues``;
    ``repro/serve/__init__.py`` → ``repro.serve``; files outside any
    ``repro`` directory fall back to their stem, so rules scoped to
    ``repro.*`` simply never match them.
    """
    parts = list(path.parts)
    name = path.stem
    directories = parts[:-1]
    if "repro" in directories:
        # Rightmost "repro" directory anchors the dotted path.
        anchor = len(directories) - 1 - directories[::-1].index("repro")
        dotted = directories[anchor:] + (
            [] if name == "__init__" else [name]
        )
        return ".".join(dotted)
    return name


def load_module(path: Path, root: Path | None = None) -> ModuleContext:
    """Read + parse one file into a :class:`ModuleContext`.

    Raises:
        SyntaxError: the file does not parse (callers surface this as a
            report-level error; broken syntax gates CI regardless).
    """
    source = path.read_text(encoding="utf-8")
    relative = str(path)
    if root is not None:
        try:
            relative = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            relative = str(path)
    return ModuleContext(
        path=path,
        relative=relative,
        package=module_package(path),
        source=source,
        tree=ast.parse(source, filename=relative),
    )


# --------------------------------------------------------------------------
# Pragma application
# --------------------------------------------------------------------------


def apply_pragmas(
    module: ModuleContext,
    violations: list[Violation],
    active: Iterable[str] | None = None,
) -> list[Violation]:
    """Filter ``violations`` through the module's pragmas.

    Returns the surviving violations plus any RA000 findings about the
    pragmas themselves (missing justification, suppressing nothing).

    ``active`` is the set of rule codes that actually ran (``None``
    means all of them).  A ``--select``-narrowed run must not police
    the other rules' pragmas: a pragma naming no active code is
    invisible to this run, and staleness ("suppresses nothing") is
    only reported when *every* code the pragma names was checked —
    otherwise an unselected rule might be the one it suppresses.
    """
    pragmas = module.pragmas()
    if not pragmas:
        return violations
    active_set = None if active is None else set(active)

    surviving: list[Violation] = []
    used: set[int] = set()  # indices into `pragmas`

    def suppressors(violation: Violation) -> Iterator[int]:
        for index, pragma in enumerate(pragmas):
            if pragma.reason is None:
                continue  # an unjustified pragma suppresses nothing
            if violation.rule not in pragma.codes:
                continue
            if pragma.filewide or pragma.line == violation.line:
                yield index

    for violation in violations:
        matched = list(suppressors(violation))
        if matched:
            used.update(matched)
        else:
            surviving.append(violation)

    for index, pragma in enumerate(pragmas):
        named = set(pragma.codes)
        if active_set is not None and not (named & active_set):
            continue  # none of its rules ran: not this run's business
        if pragma.reason is None:
            surviving.append(
                module.violation(
                    PRAGMA_RULE_CODE,
                    pragma.line,
                    "pragma needs a justification: write "
                    "'# repro: noqa[%s] -- <why this is safe>'"
                    % ",".join(pragma.codes),
                )
            )
        elif index not in used:
            if active_set is not None and not named <= active_set:
                continue  # staleness unprovable: a named rule didn't run
            surviving.append(
                module.violation(
                    PRAGMA_RULE_CODE,
                    pragma.line,
                    "pragma suppresses nothing (codes %s); remove it"
                    % ",".join(pragma.codes),
                )
            )
    return surviving


# --------------------------------------------------------------------------
# Runner + reports
# --------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Outcome of one :func:`run_analysis` pass."""

    violations: list[Violation]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no violation survived pragma filtering."""
        return not self.violations

    def render_text(self) -> str:
        """The human report: one line per finding plus a summary."""
        lines = [violation.render() for violation in self.violations]
        lines.append(
            f"repro.analysis: {len(self.violations)} violation(s) in "
            f"{self.files_checked} file(s) "
            f"[rules: {', '.join(self.rules_run)}]"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """The machine report (stable shape, used by CI annotations)."""
        return json.dumps(
            {
                "ok": self.ok,
                "files_checked": self.files_checked,
                "rules": list(self.rules_run),
                "violations": [
                    violation.as_dict() for violation in self.violations
                ],
            },
            indent=2,
            sort_keys=True,
        )


def run_analysis(
    paths: Sequence[Path],
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
    select: Sequence[str] | None = None,
) -> AnalysisReport:
    """Run ``rules`` over every Python file reachable from ``paths``.

    Args:
        paths: files and/or directories to analyze.
        rules: rule instances to run; default :func:`all_rules`.
        root: repository root for project-level rules and path
            reporting; default the current working directory.
        select: restrict to these rule codes (e.g. ``["RA002"]``).

    Returns:
        An :class:`AnalysisReport`; ``report.ok`` is the gate.
    """
    root = (root or Path.cwd()).resolve()
    chosen = list(all_rules() if rules is None else rules)
    if select:
        wanted = set(select)
        unknown = wanted - {rule.code for rule in chosen}
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        chosen = [rule for rule in chosen if rule.code in wanted]

    modules: list[ModuleContext] = []
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        try:
            module = load_module(path, root=root)
        except SyntaxError as exc:
            violations.append(
                Violation(
                    rule=PRAGMA_RULE_CODE,
                    path=str(path),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        modules.append(module)

    for module in modules:
        found: list[Violation] = []
        for rule in chosen:
            found.extend(rule.check_module(module))
        violations.extend(
            apply_pragmas(
                module, found, active=[rule.code for rule in chosen]
            )
        )

    project = ProjectContext(root=root, modules=modules)
    for rule in chosen:
        violations.extend(rule.check_project(project))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return AnalysisReport(
        violations=violations,
        files_checked=len(modules),
        rules_run=tuple(rule.code for rule in chosen),
    )


# --------------------------------------------------------------------------
# Shared AST helpers used by several rules
# --------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``ast.Attribute``/``ast.Name`` chains as ``"a.b.c"`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """The dotted name a call invokes, if statically resolvable."""
    return dotted_name(call.func)


def enclosing_functions(
    tree: ast.Module,
) -> dict[ast.AST, ast.AST | None]:
    """Map every node to its nearest enclosing function def (or None)."""
    parents: dict[ast.AST, ast.AST | None] = {}

    def visit(node: ast.AST, function: ast.AST | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = node
            parents[child] = inner
            visit(child, inner)

    parents[tree] = None
    visit(tree, None)
    return parents


def keyword_value(call: ast.Call, name: str) -> ast.expr | None:
    """The AST value of keyword ``name`` on ``call`` (None if absent)."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_zero_constant(node: ast.expr | None) -> bool:
    """True for the literal ``0`` / ``0.0`` (the non-blocking timeout)."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )
