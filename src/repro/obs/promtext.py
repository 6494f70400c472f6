"""Prometheus text exposition (format 0.0.4) for :class:`MetricRegistry`.

Stdlib-only renderer + minimal parser. The renderer turns a registry into
the classic scrape format — ``# HELP`` / ``# TYPE`` headers, ``_total``
counter suffix, cumulative ``_bucket{le="..."}`` / ``_sum`` / ``_count``
histogram series — so the daemon's ``GET /metrics?format=prom`` and
``repro metrics --format prom`` are scrapeable by a stock Prometheus with
no exporter sidecar.

The parser is the validation half: it re-reads an exposition into
families and samples, checking the grammar the renderer promises (legal
names, declared types, label escaping, cumulative non-decreasing buckets
whose ``+Inf`` entry equals ``_count``). CI scrapes the live daemon and
round-trips the text through it, so a renderer regression fails the build
without adding a Prometheus binary to the image.

Naming: dotted registry names are flattened
(``server.requests.healthz.GET.2xx`` →
``repro_server_requests_healthz_GET_2xx``). Flattening can collide
(``a.b`` vs ``a_b``); a collision raises :class:`~repro.errors.ObsError`
rather than silently merging two metrics into one series. The namespace
prefix is the caller's determinism marker — the daemon renders its
sim-deterministic registry under ``repro_`` and its wall-clock registry
under ``repro_wall_``, so "strip every ``repro_wall_`` line" is a grep,
not a schema lookup.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ObsError
from repro.obs.metrics import MetricRegistry

#: Metric names the exposition format accepts.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Characters flattened to ``_`` when sanitizing a registry name.
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
#: Label names the exposition format accepts.
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

_KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


# -- rendering ---------------------------------------------------------------


def sanitize_name(name: str, namespace: str = "repro") -> str:
    """Flatten a dotted registry name into a legal prometheus name."""
    flat = _SANITIZE_RE.sub("_", name)
    full = f"{namespace}_{flat}" if namespace else flat
    if not _NAME_RE.match(full):
        raise ObsError(f"cannot render metric name {name!r} as {full!r}")
    return full


def escape_help(text: str) -> str:
    """Escape a HELP line payload (backslash and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value (backslash, double-quote, newline)."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Render a sample value: integers bare, floats via repr, inf/nan named."""
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return repr(v)


def _le_label(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else format_value(bound)


class _NameTable:
    """Tracks sanitized → source names, refusing silent collisions."""

    def __init__(self) -> None:
        self._owners: Dict[str, str] = {}

    def claim(self, prom_name: str, source: str) -> str:
        owner = self._owners.get(prom_name)
        if owner is not None and owner != source:
            raise ObsError(
                f"prometheus name collision: {owner!r} and {source!r} both "
                f"flatten to {prom_name!r}"
            )
        self._owners[prom_name] = source
        return prom_name


def prom_lines(registry: MetricRegistry, namespace: str = "repro") -> List[str]:
    """Render *registry* as exposition lines (no trailing newline)."""
    lines: List[str] = []
    names = _NameTable()

    for name in sorted(registry.counters):
        base = names.claim(sanitize_name(name, namespace) + "_total", name)
        lines.append(f"# HELP {base} {escape_help(f'repro counter {name}')}")
        lines.append(f"# TYPE {base} counter")
        lines.append(f"{base} {format_value(registry.counters[name].value)}")

    for name in sorted(registry.gauges):
        base = names.claim(sanitize_name(name, namespace), name)
        lines.append(f"# HELP {base} {escape_help(f'repro gauge {name}')}")
        lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base} {format_value(registry.gauges[name].value)}")

    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        base = names.claim(sanitize_name(name, namespace), name)
        lines.append(f"# HELP {base} {escape_help(f'repro histogram {name}')}")
        lines.append(f"# TYPE {base} histogram")
        for bound, cumulative in hist.cumulative_buckets():
            lines.append(
                f'{base}_bucket{{le="{_le_label(bound)}"}} {cumulative}'
            )
        lines.append(f"{base}_sum {format_value(hist.total)}")
        lines.append(f"{base}_count {hist.count}")

    return lines


def info_lines(
    name: str, labels: Mapping[str, str], help_text: str
) -> List[str]:
    """An info-style gauge: constant 1 with identifying labels.

    The pattern Prometheus uses for build/version metadata; the daemon
    uses it to expose the most recent trace id
    (``..._trace_info{trace_id="..."} 1``) so a scrape can be joined to
    the access log without parsing JSON.
    """
    if not _NAME_RE.match(name):
        raise ObsError(f"illegal prometheus metric name {name!r}")
    for key in labels:
        if not _LABEL_RE.fullmatch(key):
            raise ObsError(f"illegal prometheus label name {key!r}")
    body = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return [
        f"# HELP {name} {escape_help(help_text)}",
        f"# TYPE {name} gauge",
        f"{name}{{{body}}} 1",
    ]


def render_prom(registry: MetricRegistry, namespace: str = "repro") -> str:
    """Render *registry* as a complete exposition document."""
    return "\n".join(prom_lines(registry, namespace)) + "\n"


# -- parsing -----------------------------------------------------------------

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _parse_sample(line: str, lineno: int) -> Tuple[str, Dict[str, str], float]:
    """Parse one sample line into ``(name, labels, value)``."""
    match = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line)
    if not match:
        raise ValueError(f"line {lineno}: malformed metric name: {line!r}")
    name = match.group(0)
    i = match.end()
    labels: Dict[str, str] = {}
    if i < len(line) and line[i] == "{":
        i += 1
        try:
            while line[i] != "}":
                lmatch = _LABEL_RE.match(line, i)
                if not lmatch or line[lmatch.end()] != "=" or line[lmatch.end() + 1] != '"':
                    raise ValueError(
                        f"line {lineno}: malformed label at column {i}"
                    )
                key = lmatch.group(0)
                i = lmatch.end() + 2
                chars: List[str] = []
                while line[i] != '"':
                    if line[i] == "\\":
                        escape = _ESCAPES.get(line[i + 1])
                        if escape is None:
                            raise ValueError(
                                f"line {lineno}: unknown escape "
                                f"\\{line[i + 1]!r} in label value"
                            )
                        chars.append(escape)
                        i += 2
                    else:
                        chars.append(line[i])
                        i += 1
                i += 1
                if key in labels:
                    raise ValueError(f"line {lineno}: duplicate label {key!r}")
                labels[key] = "".join(chars)
                if line[i] == ",":
                    i += 1
                elif line[i] != "}":
                    raise ValueError(
                        f"line {lineno}: expected ',' or '}}' at column {i}"
                    )
        except IndexError:
            raise ValueError(f"line {lineno}: truncated label set: {line!r}")
        i += 1
    rest = line[i:].split()
    if len(rest) not in (1, 2):  # value, optional timestamp
        raise ValueError(f"line {lineno}: expected value after name: {line!r}")
    try:
        value = float(rest[0])
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {rest[0]!r}")
    return name, labels, value


def _family_of(name: str, families: Dict[str, dict]) -> Optional[str]:
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base in families and families[base]["type"] == "histogram":
                return base
    return None


def _check_histogram(fname: str, fam: dict) -> None:
    buckets: List[Tuple[float, float]] = []
    sum_seen = count_value = None
    for name, labels, value in fam["samples"]:
        if name == fname + "_bucket":
            if "le" not in labels:
                raise ValueError(f"histogram {fname}: bucket without le label")
            buckets.append((float(labels["le"]), value))
        elif name == fname + "_sum":
            sum_seen = value
        elif name == fname + "_count":
            count_value = value
    if not buckets:
        raise ValueError(f"histogram {fname}: no _bucket samples")
    if sum_seen is None or count_value is None:
        raise ValueError(f"histogram {fname}: missing _sum or _count")
    buckets.sort(key=lambda pair: pair[0])
    if not math.isinf(buckets[-1][0]):
        raise ValueError(f"histogram {fname}: missing +Inf bucket")
    previous = 0.0
    for bound, cumulative in buckets:
        if cumulative < previous:
            raise ValueError(
                f"histogram {fname}: bucket le={bound!r} not cumulative"
            )
        previous = cumulative
    if buckets[-1][1] != count_value:
        raise ValueError(
            f"histogram {fname}: +Inf bucket {buckets[-1][1]} != "
            f"_count {count_value}"
        )


def parse_prom(text: str) -> Dict[str, dict]:
    """Parse and validate an exposition document.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}``. Raises :class:`ValueError` (with a line number) on
    grammar violations: malformed names or labels, samples without a
    ``# TYPE`` declaration, duplicate HELP/TYPE, and histograms whose
    buckets are non-cumulative or disagree with ``_count``.
    """
    families: Dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment, per the format spec
            _, kind, name = parts[:3]
            payload = parts[3] if len(parts) > 3 else ""
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: illegal family name {name!r}")
            fam = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if kind == "HELP":
                if fam["help"] is not None:
                    raise ValueError(f"line {lineno}: duplicate HELP for {name}")
                fam["help"] = payload
            else:
                if payload not in _KNOWN_TYPES:
                    raise ValueError(
                        f"line {lineno}: unknown metric type {payload!r}"
                    )
                if fam["type"] is not None:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
                fam["type"] = payload
            continue
        name, labels, value = _parse_sample(line, lineno)
        fname = _family_of(name, families)
        if fname is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} precedes its # TYPE "
                "declaration"
            )
        families[fname]["samples"].append((name, labels, value))
    for fname, fam in families.items():
        if fam["type"] is None:
            raise ValueError(f"family {fname}: HELP without TYPE")
        if not fam["samples"]:
            raise ValueError(f"family {fname}: declared but no samples")
        if fam["type"] == "histogram":
            _check_histogram(fname, fam)
    return families
