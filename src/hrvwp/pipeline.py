"""Batch orchestration: manifest in, per-recording analysis, ANOVA, reports out.

Each manifest row (path, subject_id, group) is processed independently, in
the paper's one configuration (the constants below, with the filter taps and
band leaves derived once, at import): parse -> tachogram -> 4 Hz spline
resample -> LF/HF leaves of a depth-6 db4 packet tree -> per-band threshold
split -> features. Failures are recorded per recording without aborting the
batch. Completed recordings feed two group-level ANOVA tables (coefficient
statistics and band energies), run only when the design is balanced. Another
configuration is a few calls of the ingest, wavelet and threshold functions,
which take it as arguments.
A report is written, never read back: its dataclasses go field by field to
JSON, except each band's values, which go once to a binary coefficient vector;
the feature and ANOVA tables are also written as CSV with 12 significant digits.
"""

import csv
import json
import os
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import NoneType

import numpy as np

from . import __version__
from .features import FeatureVector, extract_features
from .ingest import (
    Group,
    parse_rr_file,
    resample_cubic_spline,
    rr_to_tachogram,
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
    "process_recording",
    "run_pipeline",
    "emit_report",
    "COEFF_STAT_COLUMNS",
    "ENERGY_COLUMNS",
]

MANIFEST_FIELDS = ("path", "subject_id", "group")
COEFF_STAT_COLUMNS = ("STDLF", "MEANLF", "STDHF", "MEANHF")
ENERGY_COLUMNS = ("E_LF", "E_HF", "R_E")
FEATURE_COLUMNS = ("subject_id", "group", *(f.name for f in fields(FeatureVector)))
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

    tool: ToolInfo = ToolInfo()
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

    An Enum becomes its value and a tuple of dataclasses a list of dicts. A
    scalar, or a tuple of scalars, goes to json whole. A field annotated
    np.ndarray is left out: a band's values go to coefficients.npy, and
    significant is derived.
    """
    if isinstance(obj, (str, int, float, NoneType)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_encode(item) for item in obj] if obj and is_dataclass(obj[0]) else obj
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)
            if f.type is not np.ndarray}


def load_manifest(path) -> list[tuple[str, str, Group]]:
    """Read a UTF-8 CSV manifest with the exact header path,subject_id,group.

    Relative recording paths are resolved against the manifest's directory.
    Malformed CSV raises ValueError naming the line, as a bad row does.
    """
    manifest_path = Path(path)
    with open(manifest_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != list(MANIFEST_FIELDS):
                raise ValueError(
                    f"manifest must start with header {','.join(MANIFEST_FIELDS)}"
                )
            rows = []
            for lineno, record in enumerate(reader, start=2):
                if any(record.get(key) is None for key in MANIFEST_FIELDS) or None in record:
                    raise ValueError(f"manifest row {lineno}: expected 3 columns")
                raw = Path(record["path"].strip())
                resolved = raw if raw.is_absolute() else manifest_path.parent / raw
                try:
                    group = Group.from_string(record["group"])
                except ValueError as exc:
                    raise ValueError(f"manifest row {lineno}: {exc}") from None
                rows.append((str(resolved), record["subject_id"].strip(), group))
        except csv.Error as exc:
            raise ValueError(f"manifest line {reader.reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"manifest {manifest_path} lists no recordings")
    return rows


def process_recording(path, subject_id: str, group: Group) -> RecordingReport:
    """Run the full single-recording chain; data errors become a failed report.

    Unreadable or malformed input (OSError, ValueError and its subclasses
    RRParseError, UnicodeDecodeError and FeatureError) marks the recording
    failed; any other exception is a bug and propagates.
    """
    try:
        rr_ms = parse_rr_file(Path(path))
        times, values = rr_to_tachogram(rr_ms)
        signal = resample_cubic_spline(times, values, RATE_HZ)
        n_resampled = len(signal)
        signal = truncate_to_block(signal, DEPTH)

        leaves = wpt_leaves(signal, DEPTH, TAPS, LF_LEAVES + HF_LEAVES)
        bands = (
            threshold_band(leaves[:len(LF_LEAVES)].ravel(), LF_LEAVES, band="LF"),
            threshold_band(leaves[len(LF_LEAVES):].ravel(), HF_LEAVES, band="HF"),
        )

        return RecordingReport(
            subject_id=subject_id,
            group=group,
            n_intervals=len(rr_ms),
            n_resampled=n_resampled,
            n_analyzed=len(signal),
            features=extract_features(*bands),
            bands=bands,
        )
    except (ValueError, OSError) as exc:
        return RecordingReport(subject_id=subject_id, group=group,
                               error=f"{type(exc).__name__}: {exc}")


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

    grid = np.array([[astuple(r.features) for r in by_group[g]] for g in groups])
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


def run_pipeline(manifest) -> RunReport:
    """Process every manifest row, then run the two group-level ANOVA tables."""
    rows = load_manifest(manifest)
    ids = [subject for _, subject, _ in rows]
    if len(set(ids)) != len(ids):
        raise ValueError("manifest subject_id values must be unique")

    recordings = tuple(
        sorted(
            (process_recording(path, subject, group)
             for path, subject, group in rows),
            key=lambda r: r.subject_id,
        )
    )
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
    precision; CSV numbers carry 12 significant digits. Every file is first
    written under a temporary name in out_dir; only then are they renamed
    into place, report.json last, so a failed or killed run leaves no new
    report.json beside an earlier run's files and no truncated one. A skipped
    table's CSV is removed, so none is left over from an earlier run into out_dir.
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
            [r.subject_id, r.group.value, *(getattr(r.features, k) for k in FEATURE_COLUMNS[2:])]
            for r in report.recordings if r.features is not None
        ])
        skipped = []
        for a in report.anova:
            if a.status == "ok":
                _write_csv(stage(f"anova_{a.name}.csv"), ["Source", "SS", "df", "MS", "F", "p"],
                           [(r.source.capitalize(), r.ss, r.df, r.ms, r.f, r.p)
                            for r in a.table.rows])
            else:
                skipped.append(out / f"anova_{a.name}.csv")
        stage("report.json").write_text(report.to_json() + "\n", encoding="utf-8")

        for path in skipped:
            path.unlink(missing_ok=True)
        for path, temporary in staged.items():
            os.replace(temporary, path)
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc
    finally:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
    return set(staged)
