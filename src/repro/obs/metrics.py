"""Metric registry: bound reads of the counter catalog, with labels.

The repo's counters live where they are counted: plain fields of
:class:`~repro.core.allocator.AllocatorStats` and
:class:`~repro.sched.metrics.SimResult`, each declaring its metric
name, kind and help text once with :func:`metric`, plus the events of
a :class:`~repro.sched.log.ScheduleLog`.  A :class:`MetricRegistry`
holds **bound** series only: each reads a live value through a
zero-argument callable at snapshot time (:meth:`MetricRegistry.bind`,
or :meth:`MetricRegistry.bind_fields` for every declared field of a
dataclass).  So the registry never re-counts anything and costs the
simulation hot path nothing, and it cannot disagree with the fields it
reads (``tests/test_obs_parity.py`` holds the two views to it).

Two read APIs: ``snapshot()`` (a flat dict for programs) and
``export_prometheus_text()`` (the Prometheus text exposition format for
scrapers and humans).  Metric names follow Prometheus conventions
(``repro_*_total`` for counters); the full catalog lives in
``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: the dataclass-field metadata key :func:`metric` declares under
_METRIC_KEY = "metric"

_KINDS = ("counter", "gauge")

LabelValues = Tuple[str, ...]


def metric(name: str, help: str, kind: str = "counter", default=0):
    """A :func:`dataclasses.field` that declares the metric exporting it
    (``default=dataclasses.MISSING`` declares a required field)."""
    return dataclasses.field(
        default=default, metadata={_METRIC_KEY: (name, kind, help)}
    )


def declared_metrics(obj) -> Dict[str, Tuple[str, str, str]]:
    """``{field: (metric name, kind, help)}`` for every field of the
    dataclass (or dataclass instance) ``obj`` declared with
    :func:`metric`, in field order."""
    return {
        f.name: f.metadata[_METRIC_KEY]
        for f in dataclasses.fields(obj)
        if _METRIC_KEY in f.metadata
    }


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def format_labels(labelnames: Sequence[str], values: LabelValues) -> str:
    """Render ``{a="x",b="y"}`` (empty string for unlabeled series)."""
    if not labelnames:
        return ""
    inner = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(labelnames, values)
    )
    return "{" + inner + "}"


def _format_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Family:
    """A named family of bound series, one per label-value tuple."""

    def __init__(
        self, name: str, help: str, kind: str, labelnames: Sequence[str]
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._series: Dict[LabelValues, Callable[[], float]] = {}

    def bind(self, fn: Callable[[], float], labels: Mapping[str, str]) -> None:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        if key in self._series:
            raise ValueError(
                f"{self.name}{format_labels(self.labelnames, key)} "
                "is already bound"
            )
        self._series[key] = fn

    def collect(self) -> List[Tuple[str, float]]:
        """``(rendered labels, value)`` for every series, label-sorted."""
        return [
            (format_labels(self.labelnames, key), float(self._series[key]()))
            for key in sorted(self._series)
        ]


class MetricRegistry:
    """Families of bound series plus the two read APIs.

    >>> reg = MetricRegistry()
    >>> box = {"hits": 3}
    >>> reg.bind("cache_hits_total", "cache hits", lambda: box["hits"])
    >>> reg.snapshot()["cache_hits_total"]
    3.0
    """

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    def bind(
        self,
        name: str,
        help: str,
        fn: Callable[[], float],
        kind: str = "counter",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Register (or extend) a bound series: ``fn`` is called at
        snapshot/export time, so the registry always reports the live
        value of whatever storage ``fn`` reads.  Repeated calls with the
        same name but different label values add series to the family
        (label *names* and the kind must match)."""
        if kind not in _KINDS:
            raise ValueError(
                f"metric kind must be one of {_KINDS}, not {kind!r}"
            )
        labels = dict(labels or {})
        family = self._families.get(name)
        if family is None:
            family = _Family(name, help, kind, tuple(labels))
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {family.kind}"
            )
        family.bind(fn, labels)

    def bind_fields(
        self, obj, labels: Optional[Mapping[str, str]] = None
    ) -> None:
        """Bind every field of dataclass instance ``obj`` that declares
        a metric (see :func:`metric`), reading it live off ``obj``."""
        for field, (name, kind, help) in declared_metrics(obj).items():
            self.bind(name, help, _getter(obj, field), kind=kind,
                      labels=labels)

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- reading --------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``{"name{labels}": value}`` dict of every series
        (unlabeled series appear under their bare name)."""
        return {
            f"{name}{labels}": value
            for name in sorted(self._families)
            for labels, value in self._families[name].collect()
        }

    def export_prometheus_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labels, value in family.collect():
                lines.append(f"{name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _getter(obj, field):
    return lambda o=obj, f=field: getattr(o, f)
