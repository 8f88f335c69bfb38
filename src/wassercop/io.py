"""File ingestion: distributions from CSV/JSON, copula rows from CSV."""
from __future__ import annotations

import csv
import json
from pathlib import Path

from .copulas import EmpiricalCopula
from .distributions import (
    Distribution1D,
    Empirical,
    Exponential,
    Normal,
    Uniform,
    empirical_from_samples,
)
from .grids import InputError


def distribution_from_json(obj: dict) -> Distribution1D:
    try:
        kind = obj["kind"]
        if kind == "empirical":
            # weights stay as strings so decimal inputs normalize exactly
            return Empirical((float(x), str(w)) for x, w in obj["atoms"])
        if kind == "point_mass":
            # a one-atom law: it takes the exact routes and the oracle
            return Empirical([(float(obj["location"]), 1)])
        if kind == "uniform":
            return Uniform(float(obj["a"]), float(obj["b"]))
        if kind == "normal":
            return Normal(float(obj["mean"]), float(obj["stddev"]))
        if kind == "exponential":
            return Exponential(float(obj["rate"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad distribution spec: {exc}") from exc
    raise InputError(f"unknown distribution kind {obj.get('kind')!r}")


def _csv_rows(path: Path) -> list[list[str]]:
    """The rows of a CSV file that have a nonblank cell."""
    try:
        with path.open(newline="") as fh:
            return [row for row in csv.reader(fh) if any(map(str.strip, row))]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _samples_from_csv(path: Path) -> Empirical:
    rows = _csv_rows(path)
    if not rows:
        raise InputError(f"{path}: empty file")
    try:
        float(rows[0][0])
    except ValueError:
        del rows[0]  # header line `x[,w]`
    if not rows:
        raise InputError(f"{path}: no samples")
    try:
        xs = [float(row[0]) for row in rows]
    except ValueError as exc:
        raise InputError(f"{path}: bad sample location: {exc}") from exc
    ws = [(row[1].strip() if len(row) > 1 else "") or "1" for row in rows]
    try:
        return empirical_from_samples(xs, ws)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_distribution(path: str | Path) -> Distribution1D:
    """Load a law from a .json spec or a .csv sample file (header `x[,w]`)."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    if path.suffix.lower() == ".json":
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
        return distribution_from_json(obj)
    return _samples_from_csv(path)


def load_copula(path: str | Path) -> EmpiricalCopula:
    """The empirical copula of d-column CSV data rows, ranked column by
    column (EmpiricalCopula.from_data). Rows that are already shifted ranks
    (each column a permutation of 0, 1/n, ..., (n-1)/n) come back unchanged.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    rows = []
    for row in _csv_rows(path):
        cells = [c.strip() for c in row]
        while not cells[-1]:  # trailing blank cells; _csv_rows keeps a nonblank one
            del cells[-1]
        try:
            rows.append(tuple(float(c) for c in cells))
        except ValueError:
            if not rows and all(cells):  # header line
                continue
            raise InputError(f"{path}: bad copula row {row!r}")
    if not rows:
        raise InputError(f"{path}: no copula rows")
    try:
        return EmpiricalCopula.from_data(rows)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
