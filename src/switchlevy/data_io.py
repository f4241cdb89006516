"""File formats: price CSVs, quote CSVs, model JSON, window files."""

from __future__ import annotations

import csv
import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from .calibration import QuoteRow, QuoteTable
from .cos import ContractSpec, OptionKind
from .estimation import DateWindows, ReturnSeries
from .regime import TRADING_DT, Family, RegimeParams, SwitchingModel


class DataError(ValueError):
    pass


def _csv_rows(path, columns: tuple[str, ...]):
    """Yield (line number, row) for each nonblank data row of a CSV whose
    header starts with columns; a row with fewer fields raises DataError."""
    expected = ",".join(columns)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[: len(columns)]] != list(columns):
            raise DataError(f"{path}: expected header '{expected}', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(columns):
                raise DataError(f"{path} line {lineno}: expected '{expected}', got {row}")
            yield lineno, row


def load_prices(path, clip_floor: float = 0.01) -> ReturnSeries:
    """Read a 'date,price' CSV into daily log returns.

    Nonpositive prices (negative electricity spots) are replaced by
    clip_floor before taking logs; the count of replacements is kept on
    the returned series.
    """
    dates: list[date] = []
    prices: list[float] = []
    for lineno, row in _csv_rows(path, ("date", "price")):
        try:
            d = date.fromisoformat(row[0].strip())
            p = float(row[1])
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
        if not math.isfinite(p):
            raise DataError(f"{path} line {lineno}: price {p} is not finite")
        if dates and d <= dates[-1]:
            raise DataError(f"{path} line {lineno}: dates must be strictly increasing")
        dates.append(d)
        prices.append(p)
    if len(prices) < 2:
        raise DataError(f"{path}: need at least 2 rows, got {len(prices)}")
    arr = np.asarray(prices)
    n_clipped = int((arr <= 0).sum())
    arr = np.where(arr <= 0, clip_floor, arr)
    log_returns = np.diff(np.log(arr))
    return ReturnSeries(tuple(dates[1:]), log_returns, TRADING_DT, n_clipped)


def load_quotes(path) -> QuoteTable:
    """Read a 'maturity,strike,kind,mid' CSV into a validated quote table."""
    rows: list[QuoteRow] = []
    for lineno, row in _csv_rows(path, ("maturity", "strike", "kind", "mid")):
        try:
            rows.append(
                QuoteRow(
                    maturity=float(row[0]),
                    strike=float(row[1]),
                    kind=OptionKind(row[2].strip().lower()),
                    mid=float(row[3]),
                )
            )
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
    try:
        return QuoteTable(tuple(rows))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_grid(path) -> list[ContractSpec]:
    """Read a 'maturity,strike,kind' CSV into a nonempty contract list."""
    contracts = []
    for lineno, row in _csv_rows(path, ("maturity", "strike", "kind")):
        try:
            contracts.append(ContractSpec(float(row[1]), float(row[0]), OptionKind(row[2].strip().lower())))
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
    if not contracts:
        raise DataError(f"{path}: no contracts found")
    return contracts


def model_to_dict(model: SwitchingModel) -> dict:
    return {
        "family": model.family.value,
        "regimes": [regime_to_dict(p) for p in model.regimes],
        "lambda12": model.lambda12,
        "lambda21": model.lambda21,
        "s0": model.s0,
        "r": model.r,
    }


def regime_to_dict(params: RegimeParams) -> dict:
    """One parameter block of a "regimes" list, as `regimes_from_dict` reads it."""
    return {"mu": params.mu, "sigma": params.sigma, "alpha": params.alpha, "beta": params.beta}


def regimes_from_dict(doc: dict) -> tuple[RegimeParams, ...]:
    """The parameter blocks of doc["regimes"]; raises KeyError, TypeError
    or ValueError on a malformed block."""
    return tuple(
        RegimeParams(float(p["mu"]), float(p["sigma"]), float(p["alpha"]), float(p["beta"]))
        for p in doc["regimes"]
    )


def model_from_dict(doc: dict) -> SwitchingModel:
    try:
        return SwitchingModel(
            regimes=regimes_from_dict(doc),
            lambda12=float(doc["lambda12"]),
            lambda21=float(doc["lambda21"]),
            family=Family(doc["family"]),
            s0=float(doc["s0"]),
            r=float(doc["r"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model document: {exc}") from exc


def save_model(model: SwitchingModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path) -> SwitchingModel:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    return model_from_dict(doc)


def load_windows(path) -> DateWindows:
    """Read a JSON list of [start, end] ISO date pairs (regime-1 windows)."""
    try:
        doc = json.loads(Path(path).read_text())
        windows = tuple(
            (date.fromisoformat(start), date.fromisoformat(end)) for start, end in doc
        )
    except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid windows file: {exc}") from exc
    return DateWindows(windows)
