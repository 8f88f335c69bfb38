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
    PointMass,
    Uniform,
)


class ParseError(ValueError):
    """Malformed input file or unsupported schema."""


def distribution_from_json(obj: dict) -> Distribution1D:
    try:
        kind = obj["kind"]
        if kind == "empirical":
            # weights stay as strings so decimal inputs normalize exactly
            return Empirical((float(x), str(w)) for x, w in obj["atoms"])
        if kind == "point_mass":
            return PointMass(float(obj["location"]))
        if kind == "uniform":
            return Uniform(float(obj["a"]), float(obj["b"]))
        if kind == "normal":
            return Normal(float(obj["mean"]), float(obj["stddev"]))
        if kind == "exponential":
            return Exponential(float(obj["rate"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad distribution spec: {exc}") from exc
    raise ParseError(f"unknown distribution kind {obj.get('kind')!r}")


def _samples_from_csv(path: Path) -> Empirical:
    atoms = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{path}: empty file")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1  # header line `x[,w]`
    for row in rows[start:]:
        try:
            x = float(row[0])
            w = row[1].strip() if len(row) > 1 and row[1].strip() else "1"
        except ValueError as exc:
            raise ParseError(f"{path}: bad sample row {row!r}") from exc
        atoms.append((x, w))
    if not atoms:
        raise ParseError(f"{path}: no samples")
    try:
        return Empirical(atoms)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_distribution(path: str | Path) -> Distribution1D:
    """Load a law from a .json spec or a .csv sample file (header `x[,w]`)."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    if path.suffix.lower() == ".json":
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        return distribution_from_json(obj)
    return _samples_from_csv(path)


def load_copula(path: str | Path, ranks_auto: bool = False) -> EmpiricalCopula:
    """Load empirical-copula rows from CSV (d columns).

    With ranks_auto the rows are treated as raw data and rank-transformed to
    pseudo-observations; otherwise they must already lie in [0, 1]^d.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    rows = []
    with path.open(newline="") as fh:
        for row in csv.reader(fh):
            cells = [c.strip() for c in row if c.strip()]
            if not cells:
                continue
            try:
                rows.append(tuple(float(c) for c in cells))
            except ValueError:
                if not rows:  # header line
                    continue
                raise ParseError(f"{path}: bad copula row {row!r}")
    if not rows:
        raise ParseError(f"{path}: no copula rows")
    try:
        return EmpiricalCopula.from_data(rows) if ranks_auto else EmpiricalCopula(rows)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
