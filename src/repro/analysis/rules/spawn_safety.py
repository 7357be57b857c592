"""RA004 — every ``repro`` module must be spawn-safe.

A process started with the ``spawn`` method — a ``multiprocessing``
worker handed a pickled beamformer, or any fresh interpreter such as
each perfbench run — re-imports the ``repro`` tree from scratch and
then unpickles what it was handed.  Two things can silently break
that:

1. **Import side effects.**  A module that does real work at import
   time (opens files, starts threads, sleeps, seeds global RNGs,
   mutates the environment) executes that work *once per process*,
   turning N processes into N surprises.  The import path of a child
   is effectively the whole package (a pickled beamformer can pull in
   any model/layer module), so the rule covers all of ``repro``.

2. **Backend pickling.**  Backends cross the process boundary *by
   registry name* (:meth:`repro.backend.ArrayBackend.__reduce__`):
   the child resolves its own registered instance, because thread-local
   scratch pools and cached index tables must never ride a pickle.  An
   :class:`~repro.backend.ArrayBackend` subclass that overrides
   ``__reduce__``/``__reduce_ex__``/``__getstate__``/``__setstate__``
   breaks that contract and will hand spawned children stale or
   unpicklable state.

Module-level *registrations* (``register_backend``,
``register_beamformer``, ``logging.getLogger``, dataclass machinery)
are exactly what spawn-safety requires and are not flagged: the rule
blacklists effectful calls rather than whitelisting idioms.
"""

from __future__ import annotations

from typing import Iterable, Iterator
import ast

from repro.analysis.engine import (
    ModuleContext,
    Rule,
    Violation,
    call_name,
    dotted_name,
    enclosing_functions,
    register_rule,
)

#: Everything under this package must import without side effects.
SPAWN_PACKAGES = ("repro",)

#: Effectful calls that must not run at module import time.
IMPORT_EFFECT_CALLS = frozenset(
    {
        "open",
        "print",
        "input",
        "time.sleep",
        "os.system",
        "os.makedirs",
        "os.mkdir",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "socket.socket",
        "socket.create_connection",
        "threading.Thread",
        "multiprocessing.Process",
        "multiprocessing.Pool",
        "np.random.seed",
        "numpy.random.seed",
        "random.seed",
    }
)

#: Pickle-protocol hooks an ArrayBackend subclass must not override.
PICKLE_HOOKS = frozenset(
    {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__"}
)


class SpawnSafetyRule(Rule):
    """Flag import-time side effects and backend pickle overrides."""

    code = "RA004"
    summary = (
        "repro modules must be import-pure (spawn-safe workers) and "
        "ArrayBackend subclasses must pickle by registry name"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Violation]:
        """Report import-time effects and pickle-protocol overrides."""
        if not module.package.startswith(SPAWN_PACKAGES):
            return []
        found: list[Violation] = []
        # Import-time code = everything whose nearest enclosing function
        # is None: module statements, if/try/with bodies at top level,
        # and class bodies (all of which execute on import).  Function
        # bodies run only when called and are excluded.
        owners = enclosing_functions(module.tree)
        for node in ast.walk(module.tree):
            if owners.get(node) is not None:
                continue
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in IMPORT_EFFECT_CALLS:
                    found.append(
                        module.violation(
                            self.code,
                            node,
                            f"import-time call to {name}(); every "
                            f"spawned process re-imports this "
                            f"module, so imports must be side-effect "
                            f"free",
                        )
                    )
            # Environment mutation at import poisons child processes
            # inconsistently (spawn re-reads the parent's env, not the
            # import-time mutation order).
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and dotted_name(target.value) == "os.environ"
                ):
                    found.append(
                        module.violation(
                            self.code,
                            target,
                            "import-time os.environ mutation; spawned "
                            "children must see the parent's environment, "
                            "not import-order side effects",
                        )
                    )

        found.extend(self._check_backend_subclasses(module))
        return found

    def _check_backend_subclasses(
        self, module: ModuleContext
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {dotted_name(base) for base in node.bases}
            if not bases & {"ArrayBackend", "backend.ArrayBackend"}:
                continue
            for child in node.body:
                if (
                    isinstance(child, ast.FunctionDef)
                    and child.name in PICKLE_HOOKS
                ):
                    yield module.violation(
                        self.code,
                        child,
                        f"ArrayBackend subclass {node.name} overrides "
                        f"{child.name}; backends must pickle by "
                        f"registry name (the base __reduce__) so "
                        f"spawned children resolve their own instance",
                    )


register_rule(SpawnSafetyRule())
