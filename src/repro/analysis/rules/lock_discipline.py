"""RA006 — lock-owning classes mutate their state only under the lock.

The serve-layer concurrency primitives (:mod:`repro.serve.queues`,
:mod:`repro.serve.telemetry`) follow one discipline: a class that owns a
``self._lock`` mutates its instance attributes *only* inside a
``with self._lock:`` (or a Condition built on that lock) block.  A
mutation that slips outside the lock is invisible to every existing
test — it only manifests as a lost update or a torn read under real
contention, which is exactly when nobody is watching.

Scope: classes in ``repro.serve`` whose ``__init__`` creates a
``threading.Lock``/``RLock`` bound to ``self._lock``.

Mechanics: within such a class, ``self.<attr>`` assignment and
augmented-assignment targets in methods other than ``__init__`` must
appear lexically inside a ``with`` statement whose context expression
is ``self._lock`` or a Condition alias of it (an attribute assigned
``threading.Condition(self._lock)`` in ``__init__``, e.g.
``self._not_empty``).  ``__init__`` is exempt — the object is not yet
shared.  Attributes that are intentionally lock-free (e.g. a
``threading.Event`` flag set from a signal handler) carry a line
pragma with the justification.
"""

from __future__ import annotations

from typing import Iterable
import ast

from repro.analysis.engine import (
    ModuleContext,
    Rule,
    Violation,
    call_name,
    dotted_name,
    register_rule,
)

#: Packages whose lock-owning classes this rule polices.
LOCK_PACKAGES = ("repro.serve",)

#: Constructors that create a mutual-exclusion lock.
LOCK_CONSTRUCTORS = frozenset(
    {"threading.Lock", "threading.RLock", "Lock", "RLock"}
)

#: Constructors that wrap a lock in a condition variable.
CONDITION_CONSTRUCTORS = frozenset({"threading.Condition", "Condition"})


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guard_aliases(cls: ast.ClassDef) -> set[str]:
    """Attribute names that act as the class's ``_lock`` guard.

    Returns an empty set when the class does not own a ``_lock``.
    Conditions constructed over ``self._lock`` in ``__init__`` (or over
    no explicit lock, while the class also owns ``_lock`` — their
    internal lock is then a distinct guard the class chose) count as
    guards in their own right.
    """
    init = next(
        (
            item
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ),
        None,
    )
    if init is None:
        return set()
    guards: set[str] = set()
    has_lock = False
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        ctor = call_name(node.value)
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if attr == "_lock" and ctor in LOCK_CONSTRUCTORS:
                has_lock = True
                guards.add(attr)
            elif ctor in CONDITION_CONSTRUCTORS:
                guards.add(attr)
    if not has_lock:
        return set()
    return guards


def _guarded_lines(
    func: ast.FunctionDef, guards: set[str]
) -> set[int]:
    """Line numbers lexically inside a ``with self.<guard>:`` block."""
    lines: set[int] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            expr = item.context_expr
            # `with self._lock:` and `with self._not_empty:` both
            # acquire the underlying lock; so does an explicit
            # `with self._lock.acquire_timeout(...)`-style call on it.
            target = expr.func.value if isinstance(expr, ast.Call) and isinstance(
                expr.func, ast.Attribute
            ) else expr
            attr = _self_attr(target)
            if attr in guards:
                for inner in ast.walk(node):
                    line = getattr(inner, "lineno", None)
                    if line is not None:
                        lines.add(line)
                break
    return lines


class LockDisciplineRule(Rule):
    """Flag unguarded attribute mutation in ``_lock``-owning classes."""

    code = "RA006"
    summary = (
        "classes owning a _lock (repro.serve) must mutate their "
        "attributes only inside `with self._lock:` blocks"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Violation]:
        """Report self-attribute mutations outside the owning lock."""
        if not module.package.startswith(LOCK_PACKAGES):
            return []
        found: list[Violation] = []
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guards = _guard_aliases(cls)
            if not guards:
                continue
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                if func.name == "__init__":
                    continue  # not yet shared with other threads
                guarded = _guarded_lines(func, guards)
                for node in ast.walk(func):
                    targets: list[ast.expr] = []
                    if isinstance(node, ast.Assign):
                        targets = list(node.targets)
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        targets = [node.target]
                    for target in targets:
                        attr = _self_attr(target)
                        if attr is None or attr in guards:
                            continue
                        line = getattr(target, "lineno", None)
                        if line is not None and line in guarded:
                            continue
                        found.append(
                            module.violation(
                                self.code,
                                node,
                                f"{cls.name}.{func.name} mutates "
                                f"self.{attr} outside `with "
                                f"self._lock:`; {cls.name} owns a lock, "
                                f"so every mutation must hold it",
                            )
                        )
        return found


register_rule(LockDisciplineRule())
