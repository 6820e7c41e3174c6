"""Batch orchestration: manifest in, per-recording analysis, ANOVA, reports out.

Each manifest row (path, subject_id, group) is processed independently, in
the paper's one configuration (RATE_HZ, WAVELET_ORDER, DEPTH below): parse ->
tachogram -> 4 Hz spline resample -> LF/HF leaves of a depth-6 db4 packet
tree -> per-band threshold split -> features. Failures are recorded per
recording without aborting the batch. Completed recordings feed two
group-level ANOVA tables (coefficient statistics and band energies), run only
when the design is balanced. Another configuration is a few calls of the
ingest, wavelet and threshold functions, which take it as arguments.
One codec over the dataclass fields serializes reports losslessly, to
JSON plus a binary coefficient vector, which holds each band coefficient once;
the feature and ANOVA tables are also written as CSV with 12 significant digits.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

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
from .stats import AnovaTable, DegenerateDataError, FactorialData, anova_two_way
from .threshold import BandReport, threshold_band
from .wavelet import band_nodes, daubechies_filters, wpt_leaves

__all__ = [
    "RATE_HZ",
    "WAVELET_ORDER",
    "DEPTH",
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
FEATURE_COLUMNS = ("subject_id", "group", "std_lf", "mean_lf", "std_hf", "mean_hf",
                   "e_lf", "e_hf", "r_e")
CSV_FLOAT_DIGITS = 12
# layout version of report.json, written as tool.schema and checked on reading
REPORT_SCHEMA = 8

# the analysis: resampling rate, Daubechies order and packet depth, and the
# depth-DEPTH leaves that lie inside the LF and HF bands (1-4 and 5-12)
RATE_HZ = 4.0
WAVELET_ORDER = 4
DEPTH = 6
LF_LEAVES = tuple(band_nodes("LF", DEPTH, RATE_HZ))
HF_LEAVES = tuple(band_nodes("HF", DEPTH, RATE_HZ))

_FEATURE_BY_COLUMN = dict(zip(COEFF_STAT_COLUMNS + ENERGY_COLUMNS, FEATURE_COLUMNS[2:]))


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
    """Full batch result: to_json() and coefficients() store it losslessly, from_json reads it."""

    tool: ToolInfo = ToolInfo()
    recordings: tuple[RecordingReport, ...]
    anova: tuple[AnovaReport, ...]

    def to_json(self) -> str:  # every field but the band coefficients
        return json.dumps(_encode(self), indent=2)

    def coefficients(self) -> np.ndarray:  # every band's values, in report order
        return np.concatenate([np.empty(0), *(b.values for r in self.recordings for b in r.bands)])

    @classmethod
    def from_json(cls, text: str, coefficients: np.ndarray) -> "RunReport":
        return cls._from_object(_report_object(text), coefficients)

    @classmethod
    def _from_object(cls, data: dict, coefficients: np.ndarray) -> "RunReport":
        if not (isinstance(coefficients, np.ndarray) and coefficients.ndim == 1
                and coefficients.dtype == np.float64):
            raise ValueError("coefficients.npy must hold a 1-d float64 vector")
        end = 0

        def take(n: int) -> np.ndarray:  # the next band's n values
            nonlocal end
            if not 0 <= n <= coefficients.size - end:
                raise ValueError(f"coefficients.npy holds no band of n={n} at {end}")
            end += n
            return coefficients[end - n:end]

        report = _decode(cls, data, take=take)
        if end != coefficients.size:
            raise ValueError(f"coefficients.npy holds {coefficients.size} values, not {end}")
        return report

    @classmethod
    def read(cls, out_dir) -> "RunReport":
        """The report emit_report wrote under out_dir; the JSON's schema is checked first."""
        data = _report_object(Path(out_dir, "report.json").read_text(encoding="utf-8"))
        try:
            coefficients = np.load(Path(out_dir, "coefficients.npy"), allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"coefficients.npy: {exc}") from None
        return cls._from_object(data, coefficients)

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.recordings) and all(
            a.status == "ok" for a in self.anova
        )


def _report_object(text: str) -> dict:
    """The JSON object of a report.json, checked to be of the one readable schema."""
    data = json.loads(text)
    if isinstance(data, dict) and "tool" in data:  # before the keys, which older schemas differ in
        schema = data["tool"].get("schema") if isinstance(data["tool"], dict) else None
        if schema != REPORT_SCHEMA:
            raise ValueError(f"report schema {schema} is not readable, only schema "
                             f"{REPORT_SCHEMA}; a report without one has the older "
                             "per-coefficient band layout")
    return _checked_object(RunReport, data)


def _encode(obj):
    """The JSON form of a report value: a dataclass becomes a dict of its fields.

    An Enum becomes its value and a tuple of dataclasses a list of dicts. A
    scalar, or a tuple of scalars, goes to json whole. An ndarray field is left
    out: a band's values go to coefficients.npy, and significant is derived.
    """
    if isinstance(obj, (str, int, float, NoneType)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_encode(item) for item in obj] if obj and is_dataclass(obj[0]) else obj
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)
            if not isinstance(getattr(obj, f.name), np.ndarray)}


# evaluating a class's string annotations takes about 0.2 ms, and a report
# holds thousands of dataclass instances
_type_hints = functools.cache(get_type_hints)


def _checked_object(tp, data) -> dict:
    """data as the JSON object of dataclass tp: every init field present, no unknown key.

    Derived (init=False) fields are known keys, which _decode skips and the class
    recomputes; an ndarray field is no key (see _encode).
    """
    if not isinstance(data, dict):
        raise ValueError(f"{tp.__name__}: expected a JSON object, got {type(data).__name__}")
    names = [f.name for f in fields(tp) if _type_hints(tp)[f.name] is not np.ndarray]
    for key in data:
        if key not in names:
            raise ValueError(f"{tp.__name__}: unknown key {key!r}")
    for f in fields(tp):
        if f.init and f.name in names and f.name not in data:
            raise ValueError(f"{tp.__name__}: missing key {f.name!r}")
    return data


# the JSON values each scalar annotation accepts: an int may stand for a
# float, and a bool (an int subclass in Python) for neither
_SCALAR_KINDS = {str: (str,), int: (int,), float: (int, float)}


def _decode(tp, data, where: str = "report", take=None):
    """Rebuild a value of annotated type tp from its _encode form.

    where names the class and key the value belongs to, for error messages.
    An ndarray field is take(n) instead, n being the object's stored n.
    """
    if isinstance(tp, UnionType):  # X | None
        if data is None:
            return None
        (tp,) = (arg for arg in get_args(tp) if arg is not NoneType)
    if tp in _SCALAR_KINDS:
        if not isinstance(data, _SCALAR_KINDS[tp]) or isinstance(data, bool):
            raise ValueError(f"{where}: expected {tp.__name__}, got {type(data).__name__}")
        return data
    if is_dataclass(tp):
        hints = _type_hints(tp)
        data = _checked_object(tp, data)
        kwargs = {f.name: take(_decode(int, data.get("n"), f"{tp.__name__}: key 'n'"))
                  if hints[f.name] is np.ndarray else
                  _decode(hints[f.name], data[f.name], f"{tp.__name__}: key {f.name!r}", take)
                  for f in fields(tp) if f.init}
        try:
            return tp(**kwargs)
        except ValueError as exc:  # the class's own check
            raise ValueError(f"{where}: {tp.__name__}: {exc}") from None
    if get_origin(tp) is tuple:
        if not isinstance(data, list):
            raise ValueError(f"{where}: expected a JSON array, got {type(data).__name__}")
        return tuple(_decode(get_args(tp)[0], x, where, take) for x in data)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(data)
        except ValueError:
            raise ValueError(f"{where}: expected one of {[m.value for m in tp]}, "
                             f"got {data!r}") from None
    return data


def load_manifest(path) -> list[tuple[str, str, Group]]:
    """Read a UTF-8 CSV manifest with header path,subject_id,group.

    Relative recording paths are resolved against the manifest's directory.
    """
    manifest_path = Path(path)
    with open(manifest_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(MANIFEST_FIELDS):
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

        bank = daubechies_filters(WAVELET_ORDER)
        leaves = wpt_leaves(signal, DEPTH, bank, LF_LEAVES + HF_LEAVES)
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


def _anova_report(
    name: str,
    columns: tuple[str, ...],
    completed: list[RecordingReport],
) -> AnovaReport:
    """Assemble a balanced groups x columns grid and run the ANOVA."""
    by_group: dict[Group, list[RecordingReport]] = {}
    for rec in completed:
        by_group.setdefault(rec.group, []).append(rec)

    # unlabeled recordings are analyzed but form no row
    groups = [g for g in (Group.CONTROL, Group.VT, Group.VF) if g in by_group]
    if len(groups) < 2:
        return AnovaReport(name, reason="insufficient design: needs >= 2 labeled groups")
    counts = {g: len(by_group[g]) for g in groups}
    if len(set(counts.values())) != 1:
        detail = ", ".join(f"{g.value}={n}" for g, n in counts.items())
        return AnovaReport(name, reason=f"unbalanced design: {detail}")
    k = counts[groups[0]]
    if k < 2:
        return AnovaReport(name, reason="insufficient design: needs >= 2 subjects per group")

    # replicate order fixed by subject_id so the result is manifest-order independent
    grid = np.array(
        [
            [
                [getattr(r.features, _FEATURE_BY_COLUMN[col]) for r in
                 sorted(by_group[g], key=lambda r: r.subject_id)]
                for col in columns
            ]
            for g in groups
        ]
    )
    try:
        table = anova_two_way(FactorialData(grid))
    except DegenerateDataError as exc:
        return AnovaReport(name, reason=str(exc))
    return AnovaReport(
        name,
        row_labels=tuple(g.value for g in groups),
        column_labels=columns,
        replicates=k,
        table=table,
    )


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
    completed = [r for r in recordings if r.status == "ok"]
    anova = (
        _anova_report("coefficient_stats", COEFF_STAT_COLUMNS, completed),
        _anova_report("energy", ENERGY_COLUMNS, completed),
    )
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


def _anova_table_rows(table: AnovaTable):
    return [(r.source.capitalize(), r.ss, r.df, r.ms, r.f, r.p) for r in table.rows]


def emit_report(report: RunReport, out_dir=".") -> set[Path]:
    """Write report.json, coefficients.npy, features.csv and one CSV per ANOVA table.

    Returns the set of files written. RunReport.read reads the first two back
    exactly; CSV numbers carry 12 significant digits. A skipped table's CSV is
    removed, so none is left over from an earlier run into out_dir.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written: set[Path] = set()

        path = out / "report.json"
        path.write_text(report.to_json() + "\n", encoding="utf-8")
        written.add(path)

        path = out / "coefficients.npy"
        np.save(path, report.coefficients(), allow_pickle=False)
        written.add(path)

        path = out / "features.csv"
        _write_csv(path, FEATURE_COLUMNS, [
            [r.subject_id, r.group.value, *(getattr(r.features, k) for k in FEATURE_COLUMNS[2:])]
            for r in report.recordings if r.features is not None
        ])
        written.add(path)

        for a in report.anova:
            path = out / f"anova_{a.name}.csv"
            if a.status != "ok":
                path.unlink(missing_ok=True)
                continue
            _write_csv(path, ["Source", "SS", "df", "MS", "F", "p"], _anova_table_rows(a.table))
            written.add(path)
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc
    return written
