"""Batch orchestration: manifest in, per-recording analysis, ANOVA, reports out.

Each manifest row (path, subject_id, group) gives its own result, in the
paper's one configuration (the constants below, with the filter taps and
band leaves derived once, at import): parse -> tachogram -> 4 Hz spline
resample -> LF/HF leaves of a depth-6 db4 packet tree -> per-band threshold
split -> features. Rows are analyzed in chunks: one spline solve per chunk
and one transform per signal length in it; no result depends on its chunk.
Failures are recorded per recording without aborting the batch. Completed
recordings feed two group-level ANOVA tables (coefficient statistics and
band energies), run only when the design is balanced. Another configuration
is a few calls of the ingest, wavelet and threshold functions, which take
it as arguments.
A report is written, never read back: its dataclasses go field by field to
JSON, except each band's values, which go once to a binary coefficient vector;
the feature and ANOVA tables are also written as CSV with 12 significant digits.
"""

import csv
import ctypes
import json
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path
from types import NoneType

import numpy as np

from . import __version__
from .features import FeatureVector, extract_features
from .ingest import (
    Group,
    parse_rr_file,
    rr_to_tachogram,
    spline_knots,
    spline_moments,
    spline_samples,
    truncate_to_block,
)
from .stats import AnovaTable, DegenerateDataError, anova_two_way
from .threshold import BandReport, threshold_band
from .wavelet import band_nodes, daubechies_filters, wpt_leaves

__all__ = [
    "RATE_HZ",
    "WAVELET_ORDER",
    "DEPTH",
    "LF_BAND_HZ",
    "HF_BAND_HZ",
    "TAPS",
    "LF_LEAVES",
    "HF_LEAVES",
    "BandReport",
    "RecordingReport",
    "AnovaReport",
    "ToolInfo",
    "RunReport",
    "load_manifest",
    "run_pipeline",
    "emit_report",
    "COEFF_STAT_COLUMNS",
    "ENERGY_COLUMNS",
]

MANIFEST_FIELDS = ("path", "subject_id", "group")
COEFF_STAT_COLUMNS = ("STDLF", "MEANLF", "STDHF", "MEANHF")
ENERGY_COLUMNS = ("E_LF", "E_HF", "R_E")
FEATURE_COLUMNS = ("subject_id", "group", *(f.name for f in fields(FeatureVector)))
# a FeatureVector's values in field order, without astuple's recursive copy
_feature_row = attrgetter(*FEATURE_COLUMNS[2:])
CSV_FLOAT_DIGITS = 12
# layout version of report.json, written as tool.schema
REPORT_SCHEMA = 8

# the analysis: resampling rate, Daubechies order, packet depth and the LF and
# HF band edges in Hz; from them the filter's low-pass taps and the
# depth-DEPTH leaves inside each band (1-4 and 5-12: 12 sub-bands)
RATE_HZ = 4.0
WAVELET_ORDER = 4
DEPTH = 6
LF_BAND_HZ = (0.03125, 0.15625)
HF_BAND_HZ = (0.15625, 0.40625)
TAPS = daubechies_filters(WAVELET_ORDER)
LF_LEAVES = tuple(band_nodes(LF_BAND_HZ, DEPTH, RATE_HZ))
HF_LEAVES = tuple(band_nodes(HF_BAND_HZ, DEPTH, RATE_HZ))
# RR intervals in a chunk (recordings x the longest's); its spline stack pads
# that width to 2**k - 1 unknowns, up to about twice it
CHUNK_INTERVALS = 2**14


@dataclass(frozen=True)
class RecordingReport:
    """One recording's identity and result; status is "failed" exactly when error is set."""

    subject_id: str
    group: Group
    status: str = field(init=False)
    error: str | None = None
    n_intervals: int | None = None
    n_resampled: int | None = None
    n_analyzed: int | None = None
    features: FeatureVector | None = None
    bands: tuple[BandReport, ...] = ()

    def __post_init__(self):
        ok = self.error is None
        if (self.features is not None, bool(self.bands)) != (ok, ok):
            raise ValueError("an ok recording has features and bands, a failed one neither")
        object.__setattr__(self, "status", "ok" if ok else "failed")


@dataclass(frozen=True)
class AnovaReport:
    """One ANOVA table; status is "ok" exactly when table is set, else "skipped"."""

    name: str
    status: str = field(init=False)
    reason: str | None = None
    row_labels: tuple[str, ...] = ()
    column_labels: tuple[str, ...] = ()
    replicates: int | None = None
    table: AnovaTable | None = None

    def __post_init__(self):
        object.__setattr__(self, "status", "skipped" if self.table is None else "ok")


@dataclass(frozen=True)
class ToolInfo:
    """The program that wrote a report, and the report layout (schema) it wrote."""

    name: str = "hrvwp"
    version: str = __version__
    schema: int = REPORT_SCHEMA


@dataclass(frozen=True, kw_only=True)
class RunReport:
    """Full batch result: to_json() holds every field but the band values, coefficients() those."""

    tool: ToolInfo = field(default=ToolInfo(), init=False)
    recordings: tuple[RecordingReport, ...]
    anova: tuple[AnovaReport, ...]

    def to_json(self) -> str:  # every field but the band coefficients
        return json.dumps(_encode(self), indent=2)

    def coefficients(self) -> np.ndarray:  # every band's values, in report order
        return np.concatenate([np.empty(0), *(b.values for r in self.recordings for b in r.bands)])

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.recordings) and all(
            a.status == "ok" for a in self.anova
        )


def _encode(obj):
    """The JSON form of a report value: a dataclass becomes a dict of its fields.

    An Enum becomes its value and a tuple a list. A scalar goes to json
    whole. A field annotated np.ndarray is left out: a band's values go to
    coefficients.npy, and significant is derived.
    """
    if isinstance(obj, (str, int, float, NoneType)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_encode(item) for item in obj]
    return {name: _encode(getattr(obj, name)) for name in _json_fields(type(obj))}


@cache
def _json_fields(cls) -> tuple[str, ...]:
    """The names of a report dataclass's fields that _encode writes, in field order."""
    return tuple(f.name for f in fields(cls) if f.type is not np.ndarray)


def load_manifest(path) -> list[tuple[str, str, Group]]:
    """Read a UTF-8 CSV manifest with the exact header path,subject_id,group.

    Blank lines are skipped, and relative recording paths are resolved against
    the manifest's directory. Malformed CSV, a row that is not 3 columns, an
    empty path or subject_id (after stripping), an unknown group or a
    repeated subject_id raises ValueError naming the physical line the row
    ends on; bytes that are not UTF-8 raise ValueError naming the file.
    """
    manifest_path = Path(path)
    rows, subjects = [], set()
    with open(manifest_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(MANIFEST_FIELDS):
                raise ValueError(
                    f"manifest must start with header {','.join(MANIFEST_FIELDS)}"
                )
            for record in reader:
                if not record:
                    continue
                where = f"manifest line {reader.line_num}"
                if len(record) != len(MANIFEST_FIELDS):
                    raise ValueError(f"{where}: expected 3 columns")
                raw, subject, label = record
                raw, subject = raw.strip(), subject.strip()
                if not raw:
                    raise ValueError(f"{where}: empty path")
                if not subject:
                    raise ValueError(f"{where}: empty subject_id")
                try:
                    group = Group.from_string(label)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if subject in subjects:
                    raise ValueError(f"{where}: subject_id {subject!r} is not unique")
                subjects.add(subject)
                rows.append((str(manifest_path.parent / raw), subject, group))
        except csv.Error as exc:
            raise ValueError(f"manifest line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"manifest {manifest_path} is not UTF-8 text") from None
    if not rows:
        raise ValueError(f"manifest {manifest_path} lists no recordings")
    return rows


def _bands(leaves: np.ndarray) -> tuple[BandReport, BandReport]:
    """The LF and HF bands of a signal's LF_LEAVES + HF_LEAVES leaves, each thresholded alone."""
    return (threshold_band(leaves[:len(LF_LEAVES)].ravel(), LF_LEAVES, band="LF"),
            threshold_band(leaves[len(LF_LEAVES):].ravel(), HF_LEAVES, band="HF"))


def _failed(subject_id: str, group: Group, exc: Exception) -> RecordingReport:
    return RecordingReport(subject_id=subject_id, group=group,
                           error=f"{type(exc).__name__}: {exc}")


def _report(row: dict, leaves: np.ndarray) -> RecordingReport:
    """A recording's report from its identity and counts and its leaves; a ValueError fails it."""
    try:
        bands = _bands(leaves)
        return RecordingReport(**row, features=extract_features(*bands), bands=bands)
    except ValueError as exc:
        return _failed(row["subject_id"], row["group"], exc)


def _analyze(chunk: list) -> list[RecordingReport]:
    """The reports of a chunk of (subject_id, group, spline_knots result) rows, which it empties.

    One stacked spline solve, then one packet transform per analyzed length, on the stack of
    its signals, a lone one too. The knots and the solve go before any transform.
    """
    reports, by_length = [], {}
    for (subject_id, group, spline), moments in zip(
            chunk, spline_moments([spline for *_, spline in chunk])):
        try:
            samples = spline_samples(spline, moments)
            signal = truncate_to_block(samples, DEPTH)
        except ValueError as exc:
            reports.append(_failed(subject_id, group, exc))
            continue
        rows, signals = by_length.setdefault(len(signal), ([], []))
        rows.append(dict(subject_id=subject_id, group=group, n_intervals=spline[0].size,
                         n_resampled=len(samples), n_analyzed=len(signal)))
        signals.append(signal)
    chunk.clear()
    del spline, moments  # the last row's knots and the stacked solve go before any transform
    for rows, signals in by_length.values():
        stack = np.stack(signals)
        signals.clear()
        leaves = wpt_leaves(stack, DEPTH, TAPS, LF_LEAVES + HF_LEAVES)
        reports += [_report(row, leaves[k]) for k, row in enumerate(rows)]
    return reports


def _process(rows) -> list[RecordingReport]:
    """The report of every (path, subject_id, group) row: each read on its own, analyzed in chunks.

    A chunk is analyzed before a row would take it past CHUNK_INTERVALS and once it reaches
    that, so a long recording goes before the next file is read. No result depends on its chunk.
    """
    reports, chunk, widest = [], [], 0
    for path, subject_id, group in rows:
        try:
            spline = spline_knots(*rr_to_tachogram(parse_rr_file(Path(path))), RATE_HZ)
        except (ValueError, OSError) as exc:
            reports.append(_failed(subject_id, group, exc))
            continue
        if chunk and (len(chunk) + 1) * max(widest, spline[0].size) > CHUNK_INTERVALS:
            reports += _analyze(chunk)
        widest = max(widest if chunk else 0, spline[0].size)
        chunk.append((subject_id, group, spline))
        del spline  # _analyze drops the knots once the chunk holds the only reference
        if len(chunk) * widest >= CHUNK_INTERVALS:
            reports += _analyze(chunk)
    return reports + (_analyze(chunk) if chunk else [])


def _anova_reports(completed: list[RecordingReport]) -> tuple[AnovaReport, AnovaReport]:
    """Both ANOVA tables, as column slices of one balanced groups x features x subjects grid.

    The design is checked once, and a failed check skips both tables with its
    reason. A group's replicates keep the order of completed, which run_pipeline
    sorts by subject_id, so the result does not depend on manifest order.
    """
    by_group: dict[Group, list[RecordingReport]] = {}
    for rec in completed:
        by_group.setdefault(rec.group, []).append(rec)

    # unlabeled recordings are analyzed but form no row
    groups = [g for g in (Group.CONTROL, Group.VT, Group.VF) if g in by_group]
    counts = [len(by_group[g]) for g in groups]
    if len(groups) < 2:
        reason = "insufficient design: needs >= 2 labeled groups"
    elif len(set(counts)) != 1:
        reason = "unbalanced design: " + ", ".join(
            f"{g.value}={n}" for g, n in zip(groups, counts))
    elif counts[0] < 2:
        reason = "insufficient design: needs >= 2 subjects per group"
    else:
        reason = None
    # FeatureVector field order: the coefficient statistics, then the energies
    split = len(COEFF_STAT_COLUMNS)
    tables = (("coefficient_stats", COEFF_STAT_COLUMNS, slice(None, split)),
              ("energy", ENERGY_COLUMNS, slice(split, None)))
    if reason is not None:
        return tuple(AnovaReport(name, reason=reason) for name, _, _ in tables)

    grid = np.array([[_feature_row(r.features) for r in by_group[g]] for g in groups])
    grid = grid.transpose(0, 2, 1)  # (groups, features, subjects)
    reports = []
    for name, columns, part in tables:
        try:
            reports.append(AnovaReport(
                name,
                row_labels=tuple(g.value for g in groups),
                column_labels=columns,
                replicates=counts[0],
                table=anova_two_way(np.ascontiguousarray(grid[:, part])),
            ))
        except DegenerateDataError as exc:
            reports.append(AnovaReport(name, reason=str(exc)))
    return tuple(reports)


def _keep_freed_buffers() -> None:
    """On glibc, keep freed arrays in the heap for the next recording to reuse."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return  # not glibc: the allocator's defaults stand
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the ceiling of glibc's dynamic one
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice it, as glibc pairs them


def run_pipeline(manifest) -> RunReport:
    """Process every manifest row, in chunks, then run the two group-level ANOVA tables.

    First, on glibc, it sets the process's mmap and trim thresholds to 32 and
    64 MiB, over any the caller set, so the arrays a recording frees stay in the
    heap for the next; elsewhere that is a no-op. Unreadable or malformed input
    (OSError, ValueError and its subclasses RRParseError, UnicodeDecodeError and
    FeatureError) marks its recording failed; any other exception is a bug and
    propagates.
    """
    _keep_freed_buffers()
    recordings = tuple(sorted(_process(load_manifest(manifest)), key=lambda r: r.subject_id))
    anova = _anova_reports([r for r in recordings if r.status == "ok"])
    return RunReport(recordings=recordings, anova=anova)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.{CSV_FLOAT_DIGITS}g}"
    return "" if value is None else str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_report(report: RunReport, out_dir=".") -> set[Path]:
    """Write report.json, coefficients.npy, features.csv and one CSV per ANOVA table.

    Returns the set of files written. The first two hold the report at full
    precision; CSV numbers carry 12 significant digits. Every file is written
    under a temporary name in out_dir. Then an earlier report.json is removed,
    the data files are renamed into place, a skipped table's CSV left by an
    earlier run is removed, and report.json is renamed in last. So a
    directory with a report.json holds one whole run, whatever step fails.
    """
    out = Path(out_dir)
    staged: dict[Path, Path] = {}  # output file -> its temporary, in rename order

    def stage(name: str) -> Path:
        staged[out / name] = out / f".{name}.tmp"
        return staged[out / name]

    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(stage("coefficients.npy"), "wb") as fh:
            np.save(fh, report.coefficients(), allow_pickle=False)
        _write_csv(stage("features.csv"), FEATURE_COLUMNS, [
            [r.subject_id, r.group.value, *_feature_row(r.features)]
            for r in report.recordings if r.features is not None
        ])
        for a in report.anova:
            if a.status == "ok":
                _write_csv(stage(f"anova_{a.name}.csv"), ["Source", "SS", "df", "MS", "F", "p"],
                           [(r.source.capitalize(), r.ss, r.df, r.ms, r.f, r.p)
                            for r in a.table.rows])
        stage("report.json").write_text(report.to_json() + "\n", encoding="utf-8")

        report_json = out / "report.json"
        report_json.unlink(missing_ok=True)
        for path, temporary in staged.items():
            if path != report_json:
                os.replace(temporary, path)
        for a in report.anova:
            if a.status != "ok":
                (out / f"anova_{a.name}.csv").unlink(missing_ok=True)
        os.replace(staged[report_json], report_json)
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc
    finally:
        for temporary in staged.values():
            if temporary.exists():  # left by a failure before its rename
                temporary.unlink()
    return set(staged)
