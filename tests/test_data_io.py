import json
import math

import numpy as np
import pytest

import switchlevy as sl
from switchlevy.data_io import (
    DataError,
    load_grid,
    load_model,
    load_prices,
    load_quotes,
    load_windows,
    save_model,
)


def _write(path, text):
    path.write_text(text)
    return path


class TestLoadPrices:
    def test_two_rows_single_return(self, tmp_path):
        f = _write(tmp_path / "p.csv", "date,price\n2020-01-01,100\n2020-01-02,105\n")
        series = load_prices(f)
        assert len(series) == 1
        assert series.log_returns[0] == pytest.approx(math.log(1.05))
        assert series.dates[0].isoformat() == "2020-01-02"
        assert series.n_clipped == 0
        assert series.dt == pytest.approx(1 / 250)

    def test_negative_price_clipped(self, tmp_path):
        f = _write(tmp_path / "p.csv", "date,price\n2020-01-01,10\n2020-01-02,-5\n2020-01-03,10\n")
        series = load_prices(f)
        assert series.n_clipped == 1
        np.testing.assert_allclose(series.log_returns, [math.log(0.001), math.log(1000.0)])

    def test_empty_file(self, tmp_path):
        f = _write(tmp_path / "p.csv", "")
        with pytest.raises(DataError):
            load_prices(f)

    def test_single_row_rejected(self, tmp_path):
        f = _write(tmp_path / "p.csv", "date,price\n2020-01-01,100\n")
        with pytest.raises(DataError, match="at least 2"):
            load_prices(f)

    def test_malformed_row_reports_line(self, tmp_path):
        f = _write(tmp_path / "p.csv", "date,price\n2020-01-01,100\n2020-01-02,oops\n")
        with pytest.raises(DataError, match="line 3"):
            load_prices(f)

    def test_nonincreasing_dates(self, tmp_path):
        f = _write(tmp_path / "p.csv", "date,price\n2020-01-02,100\n2020-01-01,105\n")
        with pytest.raises(DataError, match="increasing"):
            load_prices(f)

    def test_header_required(self, tmp_path):
        f = _write(tmp_path / "p.csv", "day,px\n2020-01-01,100\n")
        with pytest.raises(DataError, match="header"):
            load_prices(f)

    def test_return_count_is_rows_minus_one(self, tmp_path):
        rows = "\n".join(f"2020-01-{d:02d},{100+d}" for d in range(1, 29))
        f = _write(tmp_path / "p.csv", "date,price\n" + rows + "\n")
        assert len(load_prices(f)) == 27


    def test_utf8_byte_order_mark_accepted(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a byte-order mark."""
        f = tmp_path / "p.csv"
        f.write_text("\ufeffdate,price\n2020-01-01,100\n2020-01-02,105\n", encoding="utf-8")
        series = load_prices(f)
        assert series.dates[0].isoformat() == "2020-01-02"
        assert series.log_returns[0] == pytest.approx(math.log(1.05))


class TestLoadQuotes:
    def test_single_row(self, tmp_path):
        f = _write(tmp_path / "q.csv", "maturity,strike,kind,mid\n1.0,20,call,2.5\n")
        table = load_quotes(f)
        assert len(table) == 1
        assert table.rows[0].kind is sl.OptionKind.CALL

    def test_duplicate_key_rejected(self, tmp_path):
        f = _write(
            tmp_path / "q.csv",
            "maturity,strike,kind,mid\n1.0,20,call,2.5\n1.0,20,call,2.6\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            load_quotes(f)

    def test_negative_strike_rejected(self, tmp_path):
        f = _write(tmp_path / "q.csv", "maturity,strike,kind,mid\n1.0,-20,call,2.5\n")
        with pytest.raises(DataError):
            load_quotes(f)

    def test_short_row_reports_line(self, tmp_path):
        f = _write(tmp_path / "q.csv", "maturity,strike,kind,mid\n1.0,20,call,2.5\n1.0,21,call\n")
        with pytest.raises(DataError, match="line 3"):
            load_quotes(f)

    @pytest.mark.parametrize("row", ["nan,20,call,2.5", "1.0,nan,call,2.5", "1.0,20,call,nan"])
    def test_nonfinite_value_rejected(self, tmp_path, row):
        f = _write(tmp_path / "q.csv", f"maturity,strike,kind,mid\n{row}\n")
        with pytest.raises(DataError, match="non-finite"):
            load_quotes(f)

    @pytest.mark.parametrize(
        "row, reason",
        [("1,nan,call,2", "non-finite maturity/strike/quote"),
         ("1,-20,call,2", "nonpositive maturity/strike"),
         ("1,20,call,-1", "negative quote")],
    )
    def test_bad_value_reports_line(self, tmp_path, row, reason):
        f = _write(tmp_path / "q.csv", f"maturity,strike,kind,mid\n{row}\n")
        with pytest.raises(DataError) as info:
            load_quotes(f)
        assert str(info.value).startswith(f"{f} line 2: {reason} in QuoteRow(")

    def test_unknown_kind_rejected(self, tmp_path):
        f = _write(tmp_path / "q.csv", "maturity,strike,kind,mid\n1.0,20,straddle,2.5\n")
        with pytest.raises(DataError, match="line 2"):
            load_quotes(f)


    def test_utf8_byte_order_mark_accepted(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("\ufeffmaturity,strike,kind,mid\n1.0,20,call,2.5\n", encoding="utf-8")
        assert load_quotes(f).rows == (sl.QuoteRow(1.0, 20.0, sl.OptionKind.CALL, 2.5),)


class TestLoadGrid:
    def test_rows_in_file_order(self, tmp_path):
        f = _write(tmp_path / "g.csv", "maturity,strike,kind\n1.0,18,call\n\n0.5,22,PUT\n")
        assert load_grid(f) == [
            sl.ContractSpec(18.0, 1.0, sl.OptionKind.CALL),
            sl.ContractSpec(22.0, 0.5, sl.OptionKind.PUT),
        ]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("maturity,strike,kind\n1.0,20,call\n1.0,20\n", "line 3"),
            ("maturity,strike,kind\n1.0,20,swap\n", "line 2"),
            ("maturity,strike,kind\n-1.0,20,call\n", "line 2"),
            ("strike,maturity,kind\n20,1.0,call\n", "expected header"),
            ("maturity,strike,kind\n", "no contracts"),
        ],
    )
    def test_bad_grid_rejected(self, tmp_path, text, match):
        with pytest.raises(DataError, match=match):
            load_grid(_write(tmp_path / "g.csv", text))


    def test_utf8_byte_order_mark_accepted(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_text("\ufeffmaturity,strike,kind\n1.0,18,call\n", encoding="utf-8")
        assert load_grid(f) == [sl.ContractSpec(18.0, 1.0, sl.OptionKind.CALL)]


class TestModelFile:
    def _model(self):
        return sl.SwitchingModel(
            (sl.RegimeParams(0.01, 1.0, 0.1, 0.1), sl.RegimeParams(-0.1, 5.0, 0.1, 10.0)),
            5.0,
            2.0,
            sl.Family.INVERSE_GAUSSIAN,
            20.0,
            0.04,
        )

    def test_round_trip_bit_identical(self, tmp_path):
        f = tmp_path / "model.json"
        model = self._model()
        save_model(model, f)
        first = f.read_text()
        loaded = load_model(f)
        assert loaded == model
        save_model(loaded, f)
        assert f.read_text() == first

    def test_missing_field_rejected(self, tmp_path):
        f = tmp_path / "model.json"
        doc = json.loads(json.dumps({"family": "gamma", "regimes": []}))
        f.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(f)

    def test_invalid_parameter_rejected(self, tmp_path):
        f = tmp_path / "model.json"
        save_model(self._model(), f)
        doc = json.loads(f.read_text())
        doc["regimes"][0]["sigma"] = -1.0
        f.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(f)

    def test_bad_json(self, tmp_path):
        f = _write(tmp_path / "model.json", "{not json")
        with pytest.raises(DataError):
            load_model(f)


class TestWindows:
    def test_load(self, tmp_path):
        f = _write(
            tmp_path / "w.json", '[["2012-11-16", "2014-11-16"], ["2017-02-06", "2018-06-05"]]'
        )
        win = load_windows(f)
        assert len(win.windows) == 2
        assert win.windows[0][0].isoformat() == "2012-11-16"

    def test_invalid(self, tmp_path):
        f = _write(tmp_path / "w.json", '["2012-11-16"]')
        with pytest.raises(DataError):
            load_windows(f)
