"""Dataset statistics, runtime accounting and deterministic SVG plots."""

from __future__ import annotations

from dataclasses import dataclass

from .tables import f17, read_csv, write_csv

UNITS = ("chars", "tokens")

# upper bounds of the length buckets; the final bucket is open-ended
DEFAULT_BUCKET_EDGES = (10, 15, 20, 25, 30)


class ReportError(ValueError):
    pass


def _length(text: str, unit: str) -> int:
    if unit == "chars":
        return len(text)
    if unit == "tokens":
        return len(text.split())
    raise ValueError(f"unknown length unit {unit!r}")


def _lower_median(sorted_values) -> float:
    # lower-middle convention for even counts
    return float(sorted_values[(len(sorted_values) - 1) // 2])


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
        raise ReportError("empty dataset")
    rows = {}
    for c in range(dataset.num_classes):
        lengths = sorted(_length(inst.hypothesis, unit)
                         for inst in dataset if inst.label == c)
        if not lengths:
            continue
        rows[c] = {
            "min": float(lengths[0]),
            "max": float(lengths[-1]),
            "median": _lower_median(lengths),
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
        raise ReportError(f"bucket edges must be strictly increasing, got {edges}")
    labels = bucket_labels(edges)
    rows = {}
    for c in range(dataset.num_classes):
        counts = [0] * (len(edges) + 1)
        total = 0
        for inst in dataset:
            if inst.label != c:
                continue
            n = _length(inst.hypothesis, unit)
            bucket = next((i for i, e in enumerate(edges) if n <= e), len(edges))
            counts[bucket] += 1
            total += 1
        if total:
            rows[c] = tuple(k / total for k in counts)
    return BucketProportions(unit, edges, labels, rows)


# ---------------------------------------------------------------------------
# stats CSV

def write_length_stats_csv(stats: LengthStats, path) -> None:
    keys = ("min", "max", "median", "mean")
    write_csv(path, ["label", *keys],
              ([label] + [f17(stats.rows[label][k]) for k in keys]
               for label in sorted(stats.rows)))


def write_bucket_csv(buckets: BucketProportions, path) -> None:
    write_csv(path, ["label", "edge_label", "proportion"],
              ([label, edge_label, f17(prop)]
               for label in sorted(buckets.rows)
               for edge_label, prop in zip(buckets.labels, buckets.rows[label])))


# ---------------------------------------------------------------------------
# runtime accounting

PHASES = ("pvi_compute", "train_cm", "train_eim", "evaluate")

_RUNTIME_HEADER = ["variant", "r", "phase", "seconds"]


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

    def record(self, variant: str, r: float, phase: str, seconds: float) -> RuntimeRecord:
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        rec = RuntimeRecord(variant, float(r), phase, float(seconds))
        self._records.append(rec)
        return rec

    @property
    def records(self) -> tuple[RuntimeRecord, ...]:
        return tuple(self._records)

    def write_csv(self, path) -> None:
        write_csv(path, _RUNTIME_HEADER,
                  ([rec.variant, f17(rec.r), rec.phase, f17(rec.seconds)]
                   for rec in self.records))

    @classmethod
    def read_csv(cls, path) -> "RuntimeLog":
        log = cls()
        for variant, r, phase, seconds in read_csv(path, _RUNTIME_HEADER):
            log.record(variant, float(r), phase, float(seconds))
        return log


# ---------------------------------------------------------------------------
# SVG emission (hand-rolled so byte output is deterministic)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fnum(x: float) -> str:
    return format(float(x), ".6g")


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _svg_frame(body: list[str], x_label: str, y_label: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) // 2})">{y_label}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def emit_accuracy_plot(sweep_points) -> str:
    """Classifier accuracy vs reduction ratio, one polyline per variant."""
    body = []
    variants = sorted({p.variant for p in sweep_points})
    for vi, variant in enumerate(variants):
        pts = sorted((p for p in sweep_points if p.variant == variant),
                     key=lambda p: p.r)
        color = _COLORS[vi % len(_COLORS)]
        coords = [(_scale(p.r, 0.0, 0.9, _ML, _W - _MR),
                   _scale(p.cm_accuracy, 0.0, 1.0, _H - _MB, _MT)) for p in pts]
        if len(coords) > 1:
            path = " ".join(f"{_fnum(x)},{_fnum(y)}" for x, y in coords)
            body.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in coords:
            body.append(f'<circle cx="{_fnum(x)}" cy="{_fnum(y)}" r="3" fill="{color}"/>')
        body.append(f'<text x="{_W - _MR - 140}" y="{_MT + 16 + 18 * vi}" font-size="13" '
                    f'fill="{color}">{variant}</text>')
    return _svg_frame(body, "reduction ratio r", "classifier accuracy")


def emit_runtime_plot(records) -> str:
    """Training-time scatter vs reduction ratio, colored by phase."""
    records = list(records)
    body = []
    phases = sorted({rec.phase for rec in records})
    max_s = max((rec.seconds for rec in records), default=1.0) or 1.0
    for pi, phase in enumerate(phases):
        color = _COLORS[pi % len(_COLORS)]
        for rec in records:
            if rec.phase != phase:
                continue
            x = _scale(rec.r, 0.0, 0.9, _ML, _W - _MR)
            y = _scale(rec.seconds, 0.0, max_s, _H - _MB, _MT)
            body.append(f'<circle cx="{_fnum(x)}" cy="{_fnum(y)}" r="4" fill="{color}"/>')
        body.append(f'<text x="{_W - _MR - 140}" y="{_MT + 16 + 18 * pi}" font-size="13" '
                    f'fill="{color}">{phase}</text>')
    return _svg_frame(body, "reduction ratio r", "seconds")
