"""File formats: every file the command line reads or writes.

Inputs, each rejected with a DataError that names the file (and, for a
CSV row, its line):
- price CSV `date,price` (`load_prices`): a daily history;
- quote CSV `maturity,strike,kind,mid` (`load_quotes`): option quotes;
- grid CSV `maturity,strike,kind` (`load_grid`): contracts to price;
- model JSON (`load_model`, `save_model`): family, "regimes" (two blocks of
  mu, sigma, alpha, beta), lambda12, lambda21, s0 and r;
- market JSON (`load_market`): s0, r, lambda12 and lambda21, the fixed
  market data of a calibration;
- init JSON (`load_init`): a "regimes" list of two parameter blocks, the
  start of a calibration;
- window JSON (`load_windows`): a list of [start, end] ISO date pairs.
A CSV is UTF-8 and may start with a byte-order mark. It is decoded whole
before its rows are read, so a byte that is not UTF-8 is rejected with
the line that holds it.

Outputs: a CSV table with a header row (`write_csv`), and a JSON document
with 2-space indent, sorted keys and a trailing newline (`write_json`).
`csv.writer` formats every CSV cell, and lines end in CRLF. A float cell
is the float's repr, the shortest text that reads back to the same
double, so callers pass Python scalars (`ndarray.tolist()`), not numpy
ones, whose repr is `np.float64(...)` under numpy 2.
The command line's layouts:
- `price`: maturity, strike, kind, price, method, and for Monte Carlo also
  std_error, ci_lo, ci_hi, n_paths;
- `simulate`: time, log_price, regime;
- `plot-cf`: u, re, im;
- `payoff-surface`: maturity, strike, price;
- `estimate`: family, method, "regimes" (each block with its objective),
  sojourn_years, intensities, n_returns, n_clipped_prices;
- `calibrate`: family, "regimes", lambda12, lambda21, objective_rmse,
  iterations, stop_reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from .calibration import CalibContext, QuoteRow, QuoteTable, check_quote
from .cos import ContractSpec, OptionKind
from .estimation import DateWindows, ReturnSeries
from .regime import TRADING_DT, Family, RegimeParams, SwitchingModel

# the price that replaces a nonpositive one (negative electricity spots)
# before logs are taken
PRICE_FLOOR = 0.01


class DataError(ValueError):
    pass


def _csv_rows(path, columns: tuple[str, ...], parse) -> list:
    """parse(row) for each nonblank data row of a CSV whose header starts
    with columns; a short row, or a ValueError from parse, raises a
    DataError that names the file and line. The whole file is decoded
    first, so a byte that is not UTF-8 raises one that names its line."""
    expected = ",".join(columns)
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object: the bytes after a byte-order mark
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {lineno}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header[: len(columns)]] != list(columns):
        raise DataError(f"{path}: expected header '{expected}', got {header}")
    parsed = []
    for lineno, row in enumerate(reader, start=2):
        if not any(c.strip() for c in row):
            continue
        try:
            if len(row) < len(columns):
                raise ValueError(f"expected '{expected}', got {row}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
    return parsed


def load_prices(path) -> ReturnSeries:
    """Read a 'date,price' CSV into daily log returns.

    Nonpositive prices are replaced by PRICE_FLOOR before taking logs; the
    count of replacements is kept on the returned series.
    """
    dates: list[date] = []

    def parse(row) -> float:
        d = date.fromisoformat(row[0].strip())
        p = float(row[1])
        if not math.isfinite(p):
            raise ValueError(f"price {p} is not finite")
        if dates and d <= dates[-1]:
            raise ValueError("dates must be strictly increasing")
        dates.append(d)
        return p

    prices = _csv_rows(path, ("date", "price"), parse)
    if len(prices) < 2:
        raise DataError(f"{path}: need at least 2 rows, got {len(prices)}")
    arr = np.asarray(prices)
    n_clipped = int((arr <= 0).sum())
    arr = np.where(arr <= 0, PRICE_FLOOR, arr)
    log_returns = np.diff(np.log(arr))
    return ReturnSeries(tuple(dates[1:]), log_returns, TRADING_DT, n_clipped)


def load_quotes(path) -> QuoteTable:
    """Read a 'maturity,strike,kind,mid' CSV into a validated quote table."""
    rows = _csv_rows(
        path,
        ("maturity", "strike", "kind", "mid"),
        lambda row: check_quote(
            QuoteRow(float(row[0]), float(row[1]), OptionKind(row[2].strip().lower()), float(row[3]))
        ),
    )
    try:
        return QuoteTable(tuple(rows))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_grid(path) -> list[ContractSpec]:
    """Read a 'maturity,strike,kind' CSV into a nonempty contract list."""
    contracts = _csv_rows(
        path,
        ("maturity", "strike", "kind"),
        lambda row: ContractSpec(float(row[1]), float(row[0]), OptionKind(row[2].strip().lower())),
    )
    if not contracts:
        raise DataError(f"{path}: no contracts found")
    return contracts


def _load_json(path, needs: str, build):
    """build(doc) for the JSON document in path. An unreadable or malformed
    file raises a DataError that names it; a KeyError, TypeError or
    ValueError from build raises one that also says what the file needs."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: {needs}: {exc}") from exc


def write_json(path, doc) -> None:
    """Write doc with 2-space indent, sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a header row and then rows; form the rows before calling, so a
    run that fails leaves no file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    """The model of a model document; raises KeyError, TypeError or
    ValueError on a malformed one."""
    return SwitchingModel(
        regimes=regimes_from_dict(doc),
        lambda12=float(doc["lambda12"]),
        lambda21=float(doc["lambda21"]),
        family=doc["family"],
        s0=float(doc["s0"]),
        r=float(doc["r"]),
    )


def save_model(model: SwitchingModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> SwitchingModel:
    return _load_json(path, "invalid model document", model_from_dict)


def load_market(path, family: Family | str) -> CalibContext:
    """Read a market JSON (s0, r, lambda12, lambda21) into the fixed market
    data of a calibration with subordinator family `family` (a Family or
    its string value)."""
    def build(doc) -> CalibContext:
        return CalibContext(family, *(float(doc[key]) for key in ("lambda12", "lambda21", "s0", "r")))

    return _load_json(path, "needs s0, r, lambda12, lambda21", build)


def load_init(path) -> tuple[RegimeParams, RegimeParams]:
    """Read an init JSON: a "regimes" list of exactly two parameter blocks."""
    init = _load_json(path, "needs regimes with mu, sigma, alpha, beta", regimes_from_dict)
    if len(init) != 2:
        raise DataError(f"{path}: needs exactly 2 regimes, got {len(init)}")
    return init


def load_windows(path) -> DateWindows:
    """Read a JSON list of [start, end] ISO date pairs (regime-1 windows)."""
    def build(doc) -> DateWindows:
        return DateWindows(tuple((date.fromisoformat(start), date.fromisoformat(end)) for start, end in doc))

    return _load_json(path, "invalid windows file", build)
