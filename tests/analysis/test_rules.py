"""Per-rule fixtures: each rule catches its target and spares the idiom.

Every rule gets at least one true-positive (the violation it exists to
catch) and one false-positive-avoidance case (the legitimate pattern it
must leave alone), using inline sources with chosen package scopes.
"""

import textwrap

from repro.analysis.rules.asyncio_blocking import AsyncioBlockingRule
from repro.analysis.rules.backend_purity import BackendPurityRule
from repro.analysis.rules.bounded_queues import BoundedQueuesRule
from repro.analysis.rules.docs_consistency import DocsConsistencyRule
from repro.analysis.rules.exact_json import ExactFloatJsonRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.spawn_safety import SpawnSafetyRule
from repro.analysis.rules.span_discipline import SpanDisciplineRule
from repro.analysis.engine import ProjectContext

from .helpers import make_module


def check(rule, source, package):
    return list(rule.check_module(make_module(textwrap.dedent(source), package)))


class TestBackendPurity:
    RULE = BackendPurityRule()

    def test_flags_direct_matmul_in_hot_module(self):
        found = check(
            self.RULE,
            """
            import numpy as np

            def forward(x, w):
                return np.matmul(x, w)
            """,
            "repro.nn.layers.dense",
        )
        assert len(found) == 1
        assert "np.matmul" in found[0].message

    def test_flags_linalg_calls(self):
        found = check(
            self.RULE,
            "import numpy as np\ny = np.linalg.solve(a, b)\n",
            "repro.beamform.mvdr",
        )
        assert len(found) == 1

    def test_spares_dtype_and_shape_uses(self):
        found = check(
            self.RULE,
            """
            import numpy as np

            def forward(x):
                out = np.zeros(x.shape, dtype=np.float32)
                return np.asarray(out) * np.sqrt(2.0)
            """,
            "repro.quant.schemes",
        )
        assert found == []

    def test_spares_backward_methods(self):
        found = check(
            self.RULE,
            """
            import numpy as np

            class Dense:
                def backward(self, grad):
                    return np.matmul(grad, self.w.T)
            """,
            "repro.nn.layers.dense",
        )
        assert found == []

    def test_spares_cold_packages(self):
        found = check(
            self.RULE,
            "import numpy as np\ny = np.matmul(a, b)\n",
            "repro.training.pipeline",
        )
        assert found == []

    def test_flags_elementwise_in_layers(self):
        """relu/softmax/tanh are dispatched kernels now — a direct
        np.exp/np.where in a forward path bypasses the fused kernel."""
        found = check(
            self.RULE,
            """
            import numpy as np

            def forward(x):
                e = np.exp(x)
                return np.where(x > 0, e, 0.0)
            """,
            "repro.nn.layers.activations",
        )
        assert len(found) == 2
        assert "np.exp" in found[0].message

    def test_spares_elementwise_outside_layers(self):
        """beamform/quant use the same numpy functions for physics and
        quantized-datapath semantics — not backend kernels."""
        for package in (
            "repro.beamform.envelope",
            "repro.beamform.apodization",
            "repro.quant.qexec",
        ):
            found = check(
                self.RULE,
                """
                import numpy as np

                def carrier(f, t):
                    w = np.where(t > 0, t, 0.0)
                    return np.exp(2j * np.pi * f * w) * np.tanh(w)
                """,
                package,
            )
            assert found == [], package

    def test_spares_backward_suffix_functions(self):
        found = check(
            self.RULE,
            """
            import numpy as np

            def softmax_backward(p, grad):
                return p * np.where(grad > 0, grad, 0.0)

            class Softmax:
                def backward(self, grad):
                    return np.exp(grad)
            """,
            "repro.nn.layers.activations",
        )
        assert found == []


class TestBoundedQueues:
    RULE = BoundedQueuesRule()

    def test_flags_unbounded_queue(self):
        found = check(
            self.RULE,
            "import queue\nq = queue.Queue()\n",
            "repro.serve.engine",
        )
        assert len(found) == 1

    def test_flags_maxsize_zero_as_unbounded(self):
        found = check(
            self.RULE,
            "import queue\nq = queue.Queue(maxsize=0)\n",
            "repro.serve.engine",
        )
        assert len(found) == 1

    def test_flags_bare_deque(self):
        found = check(
            self.RULE,
            "from collections import deque\nd = deque()\n",
            "repro.gateway.server",
        )
        assert len(found) == 1

    def test_flags_multiprocessing_simplequeue(self):
        found = check(
            self.RULE,
            "import multiprocessing as mp\nq = mp.SimpleQueue()\n",
            "repro.serve.engine",
        )
        assert len(found) == 1

    def test_spares_bounded_constructions(self):
        found = check(
            self.RULE,
            """
            import queue
            from collections import deque

            q1 = queue.Queue(maxsize=8)
            q2 = queue.Queue(16)
            d = deque(maxlen=4)
            """,
            "repro.serve.engine",
        )
        assert found == []

    def test_spares_non_serving_packages(self):
        found = check(
            self.RULE,
            "import queue\nq = queue.Queue()\n",
            "repro.training.loader",
        )
        assert found == []


class TestAsyncioBlocking:
    RULE = AsyncioBlockingRule()

    def test_flags_sleep_in_coroutine(self):
        found = check(
            self.RULE,
            """
            import time

            async def handler():
                time.sleep(1.0)
            """,
            "repro.gateway.server",
        )
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_flags_blocking_timeout_wait(self):
        found = check(
            self.RULE,
            """
            async def handler(feed, frame):
                feed.put(frame, timeout=2.0)
            """,
            "repro.gateway.server",
        )
        assert len(found) == 1

    def test_spares_timeout_zero_probe(self):
        found = check(
            self.RULE,
            """
            async def handler(feed, frame):
                feed.put(frame, timeout=0.0)
            """,
            "repro.gateway.server",
        )
        assert found == []

    def test_spares_awaited_wait_for(self):
        found = check(
            self.RULE,
            """
            import asyncio

            async def handler(writer, deadline):
                await asyncio.wait_for(writer.drain(), timeout=deadline)
            """,
            "repro.gateway.server",
        )
        assert found == []

    def test_spares_blocking_calls_in_sync_functions(self):
        found = check(
            self.RULE,
            """
            import time

            def pump():
                time.sleep(0.1)
            """,
            "repro.gateway.server",
        )
        assert found == []


class TestSpawnSafety:
    RULE = SpawnSafetyRule()

    def test_flags_import_time_effects(self):
        found = check(
            self.RULE,
            """
            import time

            time.sleep(1.0)
            handle = open("/tmp/x")
            """,
            "repro.models.registry",
        )
        assert len(found) == 2

    def test_flags_import_time_environ_mutation(self):
        found = check(
            self.RULE,
            "import os\nos.environ[\"OMP_NUM_THREADS\"] = \"1\"\n",
            "repro.backend.numpy_backend",
        )
        assert len(found) == 1

    def test_flags_backend_pickle_override(self):
        found = check(
            self.RULE,
            """
            class FancyBackend(ArrayBackend):
                def __reduce__(self):
                    return (FancyBackend, ())
            """,
            "repro.backend.fancy",
        )
        assert len(found) == 1
        assert "__reduce__" in found[0].message

    def test_spares_effects_inside_functions(self):
        found = check(
            self.RULE,
            """
            import time

            def warm_up():
                time.sleep(0.01)
                return open("/tmp/x")
            """,
            "repro.models.registry",
        )
        assert found == []

    def test_spares_module_level_registration(self):
        found = check(
            self.RULE,
            """
            import logging

            logger = logging.getLogger(__name__)
            register_backend(NumpyBackend())
            """,
            "repro.backend.numpy_backend",
        )
        assert found == []


class TestExactJson:
    RULE = ExactFloatJsonRule()

    def test_flags_bare_dumps_on_serving_path(self):
        found = check(
            self.RULE,
            "import json\nwire = json.dumps(payload)\n",
            "repro.gateway.server",
        )
        assert len(found) == 1

    def test_spares_the_encoder_module_itself(self):
        found = check(
            self.RULE,
            "import json\nwire = json.dumps(payload)\n",
            "repro.gateway.protocol",
        )
        assert found == []

    def test_spares_packages_off_the_wire(self):
        found = check(
            self.RULE,
            "import json\nblob = json.dumps(config)\n",
            "repro.eval.tables",
        )
        assert found == []


class TestLockDiscipline:
    RULE = LockDisciplineRule()

    def test_flags_unguarded_mutation(self):
        found = check(
            self.RULE,
            """
            import threading

            class Buffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
            "repro.serve.buffer",
        )
        assert len(found) == 1
        assert "self._count" in found[0].message

    def test_spares_guarded_mutation_and_init(self):
        found = check(
            self.RULE,
            """
            import threading

            class Buffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
            """,
            "repro.serve.buffer",
        )
        assert found == []

    def test_condition_alias_counts_as_the_lock(self):
        found = check(
            self.RULE,
            """
            import threading

            class Buffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._not_empty = threading.Condition(self._lock)
                    self._items = []

                def push(self, item):
                    with self._not_empty:
                        self._items = self._items + [item]
                        self._not_empty.notify()
            """,
            "repro.serve.buffer",
        )
        assert found == []

    def test_spares_classes_without_a_lock(self):
        found = check(
            self.RULE,
            """
            class Plain:
                def __init__(self):
                    self.value = 0

                def bump(self):
                    self.value += 1
            """,
            "repro.serve.stats",
        )
        assert found == []


class TestSpanDiscipline:
    RULE = SpanDisciplineRule()

    def test_flags_bare_span_construction(self):
        found = check(
            self.RULE,
            """
            from repro.obs import Span

            def handle(trace, now):
                span = Span("execute", 1, 0, now)
                return span
            """,
            "repro.serve.thing",
        )
        assert len(found) == 1
        assert "Span() constructed directly" in found[0].message

    def test_flags_span_call_outside_with(self):
        found = check(
            self.RULE,
            """
            def handle(trace):
                scope = trace.span("execute")
                scope.__enter__()
            """,
            "repro.gateway.thing",
        )
        assert len(found) == 1
        assert "outside a `with`" in found[0].message

    def test_flags_start_span_begin_end_pairs(self):
        found = check(
            self.RULE,
            """
            def handle(trace):
                span = trace.start_span("execute")
                span.end()
            """,
            "repro.serve.thing",
        )
        assert len(found) == 1
        assert "start_span" in found[0].message

    def test_spares_with_scopes_and_add_span(self):
        found = check(
            self.RULE,
            """
            def handle(trace, start, end):
                trace.add_span("queue_wait", start, end)
                with trace.span("execute") as scope:
                    scope.set(batch_size=4)
                async def responder():
                    async with trace.span("respond"):
                        pass
            """,
            "repro.serve.thing",
        )
        assert found == []

    def test_out_of_scope_packages_are_spared(self):
        found = check(
            self.RULE,
            """
            def build(trace):
                return trace.span("execute")
            """,
            "repro.obs.tracing",
        )
        assert found == []


class TestDocsConsistency:
    RULE = DocsConsistencyRule()

    def make_repo(self, tmp_path, *, mention_all=True, docstrings=True):
        docs = tmp_path / "docs"
        docs.mkdir()
        pkg = tmp_path / "src" / "repro" / "api"
        pkg.mkdir(parents=True)
        body = '"""Doc."""\n' if docstrings else ""
        (pkg / "__init__.py").write_text(body + "x = 1\n")
        pages = {
            "architecture.md": "covers repro.api\n" if mention_all else "",
            "serving.md": "s",
            "protocol.md": "p",
            "benchmarking.md": "b",
            "observability.md": "o",
        }
        for name, content in pages.items():
            (docs / name).write_text(content)
        (tmp_path / "README.md").write_text(
            " ".join(f"docs/{name}" for name in pages)
        )
        return tmp_path

    def project(self, root):
        return ProjectContext(root=root, modules=[])

    def test_clean_repo_passes(self, tmp_path):
        root = self.make_repo(tmp_path)
        assert list(self.RULE.check_project(self.project(root))) == []

    def test_unmentioned_subpackage_is_flagged(self, tmp_path):
        root = self.make_repo(tmp_path, mention_all=False)
        found = list(self.RULE.check_project(self.project(root)))
        assert any("repro.api" in v.message for v in found)

    def test_missing_docstring_is_flagged(self, tmp_path):
        root = self.make_repo(tmp_path, docstrings=False)
        found = list(self.RULE.check_project(self.project(root)))
        assert any("module docstring" in v.message for v in found)

    def test_overload_stubs_need_no_docstring(self, tmp_path):
        root = self.make_repo(tmp_path)
        module = root / "src" / "repro" / "api" / "__init__.py"
        module.write_text(
            '"""Doc."""\n'
            "from typing import overload\n\n\n"
            "@overload\n"
            "def f(x: int) -> int: ...\n\n\n"
            "@overload\n"
            "def f(x: str) -> str: ...\n\n\n"
            "def f(x):\n"
            '    """Docstring lives on the implementation."""\n'
            "    return x\n"
        )
        assert list(self.RULE.check_project(self.project(root))) == []

    def test_rule_gates_on_repo_layout(self, tmp_path):
        # A bare tmp dir (no docs/, no src/repro) is not a repo: silent.
        found = list(self.RULE.check_project(self.project(tmp_path)))
        assert found == []
