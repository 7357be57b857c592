"""Metrics primitives: counters, gauges, histograms, and exporters.

One :class:`MetricsRegistry` is the single sink every tier publishes
into — :class:`~repro.serve.telemetry.ServeTelemetry` (per-stage
latencies, frame counters, worker add/retire), the gateway
(session/frame admission), the control loop, and the opt-in kernel
profiler
(:mod:`repro.obs.profile`).  The registry exports two formats:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format, served raw by the gateway's ``metrics`` verb and
  scraped by ``python -m repro.obs metrics``,
* :meth:`MetricsRegistry.as_dict` — a JSON-safe nested dict, the shape
  carried in the ``metrics_ok`` reply header.

The module also carries :func:`parse_prometheus` — a dependency-free
promtext parser used by the CI scrape validation and the obs CLI, so
the exposition format is round-trip tested without installing a
Prometheus client.

This package deliberately imports nothing from :mod:`repro.serve`:
clocks are duck-typed (any object with a ``now()`` method, e.g.
:class:`repro.serve.clock.FakeClock`), keeping ``repro.obs`` a leaf
the serving tiers can depend on without cycles.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Iterator

#: Default histogram bucket upper bounds, in seconds.  Tuned for the
#: latencies this repo actually produces: sub-millisecond kernels up to
#: multi-second cold forwards.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The metric kinds a registry can hold (Prometheus TYPE names).
METRIC_KINDS = ("counter", "gauge", "histogram")


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_key(
    label_names: tuple[str, ...], labels: dict[str, object]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"metric expects labels {label_names}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _render_labels(
    label_names: tuple[str, ...],
    values: tuple[str, ...],
    extra: tuple[tuple[str, str], ...] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(label_names, values)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Metric:
    """Base of one registered metric family (a name + label schema).

    Children (one per distinct label-value tuple) are created lazily on
    first touch; a label-less metric has exactly one child keyed ``()``.
    All mutation goes through the registry's lock, shared by every
    family, so cross-metric invariants (e.g. a scrape) see a consistent
    snapshot.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        """Bind the family to its name, help line and label schema."""
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}

    def _child(self, labels: dict[str, object]):
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _new_child(self):
        raise NotImplementedError

    def samples(self) -> Iterator[tuple[str, tuple[str, ...], float]]:
        """Yield ``(sample_suffix_or_name, label_values, value)`` rows."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum (Prometheus ``counter``)."""

    kind = "counter"

    def _new_child(self) -> list[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled child."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._child(labels)[0] += amount

    def value(self, **labels: object) -> float:
        """Current total of the labelled child (0.0 if never touched)."""
        with self._lock:
            key = _label_key(self.label_names, labels)
            child = self._children.get(key)
            return child[0] if child else 0.0

    def samples(self):
        """One row per labelled child."""
        for key, child in sorted(self._children.items()):
            yield self.name, key, child[0]


class Gauge(Metric):
    """A value that can go up and down (Prometheus ``gauge``)."""

    kind = "gauge"

    def _new_child(self) -> list[float]:
        return [0.0]

    def set(self, value: float, **labels: object) -> None:
        """Set the labelled child to ``value``."""
        with self._lock:
            self._child(labels)[0] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to the labelled child."""
        with self._lock:
            self._child(labels)[0] += amount

    def value(self, **labels: object) -> float:
        """Current value of the labelled child (0.0 if never touched)."""
        with self._lock:
            key = _label_key(self.label_names, labels)
            child = self._children.get(key)
            return child[0] if child else 0.0

    def samples(self):
        """One row per labelled child."""
        for key, child in sorted(self._children.items()):
            yield self.name, key, child[0]


class _HistogramChild:
    """Bucket counts + sum + count of one labelled histogram series."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its (non-cumulative) bucket."""
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class Histogram(Metric):
    """Bucketed distribution of observations (Prometheus ``histogram``).

    Buckets are fixed at registration; each child renders cumulative
    ``_bucket{le=...}`` rows plus ``_sum`` and ``_count``, exactly the
    shape a Prometheus scraper expects.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        """Register the family with its fixed bucket bounds."""
        super().__init__(name, help_text, label_names, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled series."""
        with self._lock:
            self._child(labels).observe(float(value))

    def snapshot(self, **labels: object) -> dict:
        """``{count, sum}`` of the labelled series (zeros if untouched)."""
        with self._lock:
            key = _label_key(self.label_names, labels)
            child = self._children.get(key)
            if child is None:
                return {"count": 0, "sum": 0.0}
            return {"count": child.count, "sum": child.total}

    def samples(self):
        """Cumulative bucket rows + ``_sum``/``_count`` per child."""
        for key, child in sorted(self._children.items()):
            cumulative = 0
            for bound, count in zip(child.buckets, child.counts):
                cumulative += count
                yield (
                    self.name + "_bucket",
                    key + (("le", format(bound, "g")),),
                    float(cumulative),
                )
            cumulative += child.counts[-1]
            yield (
                self.name + "_bucket",
                key + (("le", "+Inf"),),
                float(cumulative),
            )
            yield self.name + "_sum", key, child.total
            yield self.name + "_count", key, float(child.count)


class MetricsRegistry:
    """Thread-safe home of every metric family one process exports.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (and raises if the kind
    or label schema changed), so independent subsystems can share a
    family without coordinating registration order.
    """

    def __init__(self) -> None:
        """Create an empty registry with one shared mutation lock."""
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(
        self, cls, name: str, help_text: str, labels: tuple[str, ...], **kw
    ):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.label_names != tuple(labels)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(name, help_text, tuple(labels), self._lock, **kw)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        """Get or create the named :class:`Counter` family."""
        return self._get_or_create(Counter, name, help_text, tuple(labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        """Get or create the named :class:`Gauge` family."""
        return self._get_or_create(Gauge, name, help_text, tuple(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the named :class:`Histogram` family."""
        return self._get_or_create(
            Histogram, name, help_text, tuple(labels), buckets=buckets
        )

    def names(self) -> tuple[str, ...]:
        """Registered family names, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    # -- exporters -------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for sample, key, value in metric.samples():
                    extra: tuple = ()
                    plain = key
                    if key and isinstance(key[-1], tuple):
                        plain, extra = key[:-1], (key[-1],)
                    labels = _render_labels(
                        metric.label_names, plain, extra
                    )
                    lines.append(f"{sample}{labels} {format(value, 'g')}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        """JSON-safe nested view: ``{name: {type, help, samples}}``.

        Each sample is ``{"labels": {...}, "value": v}`` (histograms
        additionally expose their bucket rows the same way).
        """
        out: dict = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                samples = []
                for sample, key, value in metric.samples():
                    extra: tuple = ()
                    plain = key
                    if key and isinstance(key[-1], tuple):
                        plain, extra = key[:-1], (key[-1],)
                    labels = dict(zip(metric.label_names, plain))
                    labels.update(dict(extra))
                    samples.append(
                        {"sample": sample, "labels": labels, "value": value}
                    )
                out[name] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "samples": samples,
                }
        return out


# --------------------------------------------------------------------------
# Promtext parsing (CI validation + obs CLI)
# --------------------------------------------------------------------------


def parse_prometheus(text: str) -> dict:
    """Parse a Prometheus text exposition into ``{family: info}``.

    Returns ``{family_name: {"type": str, "samples": [(sample_name,
    labels_dict, value), ...]}}``.  ``_bucket``/``_sum``/``_count``
    samples are attributed to their histogram family.  Raises
    :class:`ValueError` on malformed lines — the CI gateway job runs
    this over a live scrape, so a formatting regression fails fast.
    """
    families: dict = {}
    types: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in METRIC_KINDS:
                raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
            types[parts[2]] = parts[3]
            families.setdefault(
                parts[2], {"type": parts[3], "samples": []}
            )
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line, lineno)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
        families[family]["samples"].append((name, labels, value))
    return families


def _parse_sample(line: str, lineno: int) -> tuple[str, dict, float]:
    name = line
    labels: dict[str, str] = {}
    if "{" in line:
        name, rest = line.split("{", 1)
        if "}" not in rest:
            raise ValueError(f"line {lineno}: unterminated labels: {line!r}")
        body, tail = rest.rsplit("}", 1)
        labels = _parse_labels(body, lineno)
        value_text = tail.strip()
    else:
        try:
            name, value_text = line.rsplit(None, 1)
        except ValueError:
            raise ValueError(f"line {lineno}: no value: {line!r}") from None
    name = name.strip()
    if not name or not name.replace("_", "a").replace(":", "a").isalnum():
        raise ValueError(f"line {lineno}: bad metric name {name!r}")
    try:
        value = float(value_text)
    except ValueError:
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            raise ValueError(
                f"line {lineno}: bad value {value_text!r}"
            ) from None
    return name, labels, value


def _parse_labels(body: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    index = 0
    while index < len(body):
        eq = body.index("=", index)
        key = body[index:eq].strip().lstrip(",").strip()
        if body[eq + 1] != '"':
            raise ValueError(f"line {lineno}: unquoted label value")
        cursor = eq + 2
        chunks: list[str] = []
        while True:
            char = body[cursor]
            if char == "\\":
                escape = body[cursor + 1]
                chunks.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escape, escape)
                )
                cursor += 2
            elif char == '"':
                cursor += 1
                break
            else:
                chunks.append(char)
                cursor += 1
        labels[key] = "".join(chunks)
        index = cursor
    return labels


def validate_exposition(
    text: str, required: Iterable[str] = ()
) -> dict:
    """Parse ``text`` and fail on NaN samples or missing families.

    The CI contract of the gateway ``metrics`` scrape: every registered
    family must render, every sample must parse, and no value may be
    NaN.  Returns the parsed families on success.
    """
    families = parse_prometheus(text)
    for family, info in families.items():
        for sample, labels, value in info["samples"]:
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(
                    f"metric {sample}{labels} is NaN"
                )
    missing = sorted(set(required) - set(families))
    if missing:
        raise ValueError(f"metrics missing from exposition: {missing}")
    return families
