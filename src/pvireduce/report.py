"""Dataset statistics, table cell casters, runtime accounting (_timed and its log), SVG plots."""

from __future__ import annotations

import bisect
import math
import re
import statistics
import time
from dataclasses import dataclass

from .pvi import _ratio
from .tables import cast_row, count, finite_float, one_of, read_csv, str_only, write_csv

UNITS = ("chars", "tokens")
_unit = one_of("length unit", UNITS)

# upper bounds of the length buckets; the final bucket is open-ended
DEFAULT_BUCKET_EDGES = (10, 15, 20, 25, 30)


def _lengths_by_label(dataset, unit: str) -> dict[int, list[int]]:
    """Hypothesis lengths per label in one pass, ascending by label."""
    chars = _unit(unit) == "chars"
    grouped = {}
    for inst in dataset:
        n = len(inst.hypothesis) if chars else len(inst.hypothesis.split())
        grouped.setdefault(inst.label, []).append(n)
    return dict(sorted(grouped.items()))


@dataclass(frozen=True)
class LengthStats:
    unit: str
    rows: dict[int, dict[str, float]]  # label -> {min,max,median,mean}


@dataclass(frozen=True)
class BucketProportions:
    unit: str
    edges: tuple[int, ...]
    labels: tuple[str, ...]            # bucket labels, e.g. "<=10", "11-15", ">=31"
    rows: dict[int, tuple[float, ...]]  # class label -> proportion per bucket


def length_stats(dataset, unit: str = "chars") -> LengthStats:
    """Per-label min/max/median/mean hypothesis length."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rows = {}
    for c, lengths in _lengths_by_label(dataset, unit).items():
        rows[c] = {
            "min": float(min(lengths)),
            "max": float(max(lengths)),
            "median": float(statistics.median_low(lengths)),
            "mean": sum(lengths) / len(lengths),
        }
    return LengthStats(unit, rows)


def bucket_labels(edges) -> tuple[str, ...]:
    labels = [f"<={edges[0]}"]
    labels += [f"{lo + 1}-{hi}" for lo, hi in zip(edges, edges[1:])]
    labels.append(f">={edges[-1] + 1}")
    return tuple(labels)


def bucket_proportions(dataset, edges=DEFAULT_BUCKET_EDGES,
                       unit: str = "chars") -> BucketProportions:
    """Per-label share of hypotheses in each length interval."""
    edges = tuple(edges)
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bucket edges must be strictly increasing, got {edges}")
    labels = bucket_labels(edges)
    rows = {}
    for c, lengths in _lengths_by_label(dataset, unit).items():
        counts = [0] * (len(edges) + 1)
        for n in lengths:
            # the first bucket whose upper edge is >= n; the edges ascend strictly
            counts[bisect.bisect_left(edges, n)] += 1
        rows[c] = tuple(k / len(lengths) for k in counts)
    return BucketProportions(unit, edges, labels, rows)


# ---------------------------------------------------------------------------
# stats CSV

def write_length_stats_csv(stats: LengthStats, path) -> None:
    keys = ("min", "max", "median", "mean")
    write_csv(path, {"label": count, **dict.fromkeys(keys, finite_float)},
              ([label] + [stats.rows[label][k] for k in keys] for label in sorted(stats.rows)))


def write_bucket_csv(buckets: BucketProportions, path) -> None:
    write_csv(path, {"label": count, "edge_label": str_only, "proportion": finite_float},
              ([label, edge_label, prop] for label in sorted(buckets.rows)
               for edge_label, prop in zip(buckets.labels, buckets.rows[label])))


# ---------------------------------------------------------------------------
# the casters of experiment table cells, and runtime accounting

# a character outside XML 1.0's Char production, which no escape can carry
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _plot_label(text: str) -> str:
    """`text`, refused with ValueError when it holds a character XML cannot carry."""
    if _NOT_XML.search(text):
        raise ValueError(f"plot label {text!r} holds a character XML cannot carry")
    return text


def _accuracy(value) -> float:
    """An accuracy: a finite float in [0, 1]."""
    if not 0.0 <= (accuracy := finite_float(value)) <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy!r}")
    return accuracy


PHASES = ("pvi_compute", "train_cm", "train_eim", "evaluate")
_phase = one_of("phase", PHASES)


def _timed(timing: bool, fn, *args, **kwargs):
    """fn(*args, **kwargs) and the seconds it took, or 0.0 when timing is off."""
    now = time.perf_counter if timing else float  # float() is 0.0
    start = now()
    result = fn(*args, **kwargs)
    return result, now() - start


def _seconds(value) -> float:
    """A duration: a finite float >= 0; a table cell must be finite."""
    if not 0 <= (s := finite_float(value) if isinstance(value, str) else float(value)) < math.inf:
        raise ValueError(f"seconds must be >= 0 and finite, got {s!r}")
    return s


_RUNTIME_COLUMNS = {"variant": _plot_label, "r": _ratio, "phase": _phase, "seconds": _seconds}


@dataclass(frozen=True)
class RuntimeRecord:
    variant: str
    r: float
    phase: str
    seconds: float


class RuntimeLog:
    """Append-only collection of per-phase wall-clock measurements."""

    def __init__(self):
        self._records: list[RuntimeRecord] = []

    def record(self, variant: str, r: float, phase: str, seconds: float) -> None:
        cells = (variant, r, phase, seconds)
        self._records.append(RuntimeRecord(*cast_row(_RUNTIME_COLUMNS, cells)))

    @property
    def records(self) -> tuple[RuntimeRecord, ...]:
        return tuple(self._records)

    def write_csv(self, path) -> None:
        write_csv(path, _RUNTIME_COLUMNS,
                  ([rec.variant, rec.r, rec.phase, rec.seconds] for rec in self.records))

    @classmethod
    def read_csv(cls, path) -> "RuntimeLog":
        log = cls()
        log._records = read_csv(path, _RUNTIME_COLUMNS, RuntimeRecord)
        return log


# ---------------------------------------------------------------------------
# SVG emission (hand-rolled so byte output is deterministic)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
def _fnum(x: float) -> str:
    return format(float(x), ".6g")


def _scale(v, lo, hi, out_lo, out_hi):
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _plot(series, y_hi: float, y_label: str, radius: int, joined: bool) -> str:
    """SVG of y against reduction ratio r in [0, max(0.9, largest r)], one colour per
    (label, [(r, y), ...]) series: a circle per point, a polyline through them when
    `joined` and there are two or more, and a legend entry, escaped; a label with a
    character XML 1.0 cannot carry (a control other than tab, LF or CR) raises ValueError."""
    r_hi = max([0.9] + [r for _, points in series for r, _ in points])
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="14">reduction ratio r</text>',
        f'<text x="16" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) // 2})">{y_label}</text>',
    ]
    for i, (label, points) in enumerate(series):
        legend = _plot_label(label).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        color = _COLORS[i % len(_COLORS)]
        coords = [(_fnum(_scale(r, 0.0, r_hi, _ML, _W - _MR)),
                   _fnum(_scale(y, 0.0, y_hi, _H - _MB, _MT))) for r, y in points]
        if joined and len(coords) > 1:
            path = " ".join(f"{x},{y}" for x, y in coords)
            body.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in coords:
            body.append(f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{color}"/>')
        body.append(f'<text x="{_W - _MR - 140}" y="{_MT + 16 + 18 * i}" font-size="13" '
                    f'fill="{color}">{legend}</text>')
    return "\n".join(body + ["</svg>"]) + "\n"


def emit_accuracy_plot(sweep_points) -> str:
    """Classifier accuracy vs reduction ratio, one polyline per variant."""
    ordered = sorted(sweep_points, key=lambda p: p.r)
    series = [(variant, [(p.r, p.cm_accuracy) for p in ordered if p.variant == variant])
              for variant in sorted({p.variant for p in ordered})]
    return _plot(series, 1.0, "classifier accuracy", radius=3, joined=True)


def emit_runtime_plot(records) -> str:
    """Training-time scatter vs reduction ratio, colored by phase."""
    records = list(records)
    max_s = max((rec.seconds for rec in records), default=1.0) or 1.0
    series = [(phase, [(rec.r, rec.seconds) for rec in records if rec.phase == phase])
              for phase in sorted({rec.phase for rec in records})]
    return _plot(series, max_s, "seconds", radius=4, joined=False)
