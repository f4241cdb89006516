import csv
import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import switchlevy as sl
from switchlevy.cli import build_parser, main
from switchlevy.data_io import save_model

from conftest import rn_regime, synthetic_price_history, write_price_csv

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def model_file(tmp_path):
    prms = (
        rn_regime(0.3, 2.5, 2.0, sl.Family.INVERSE_GAUSSIAN, 0.04),
        rn_regime(0.5, 4.0, 3.0, sl.Family.INVERSE_GAUSSIAN, 0.04),
    )
    model = sl.SwitchingModel(prms, 2.5, 1.0, sl.Family.INVERSE_GAUSSIAN, 20.0, 0.04)
    f = tmp_path / "model.json"
    save_model(model, f)
    return f, model


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestPriceCommand:
    def test_cos_prices_match_library(self, tmp_path, model_file):
        mf, model = model_file
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n1.0,18,call\n1.0,22,put\n0.5,20,call\n")
        out = tmp_path / "prices.csv"
        assert main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["maturity", "strike", "kind", "price", "method"]
        assert len(rows) == 3
        expected = sl.price_table(
            model,
            [
                sl.ContractSpec(18.0, 1.0, sl.OptionKind.CALL),
                sl.ContractSpec(22.0, 1.0, sl.OptionKind.PUT),
                sl.ContractSpec(20.0, 0.5, sl.OptionKind.CALL),
            ],
        )
        np.testing.assert_allclose([float(r[3]) for r in rows], expected, rtol=1e-12)

    def test_mc_is_seed_deterministic(self, tmp_path, model_file):
        mf, _ = model_file
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n0.5,20,call\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                ["price", "--model", str(mf), "--grid", str(grid), "--out", str(out),
                 "--method", "mc", "--paths", "5000", "--seed", "11"]
            )
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        header, rows = _read_csv(tmp_path / "a.csv")
        assert header[:6] == ["maturity", "strike", "kind", "price", "method", "std_error"]
        assert float(rows[0][6]) <= float(rows[0][3]) <= float(rows[0][7])

    def test_mc_rows_share_one_generator(self, tmp_path, model_file):
        """Row k of an mc grid is the k-th price drawn from one generator
        seeded with --seed, bit for bit."""
        mf, model = model_file
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n0.5,20,call\n0.25,18,put\n1.0,23,call\n")
        out = tmp_path / "prices.csv"
        code = main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(out),
                     "--method", "mc", "--paths", "3000", "--seed", "7"])
        assert code == 0
        _, rows = _read_csv(out)
        rng = np.random.default_rng(7)
        for row, (t, k, kind) in zip(rows, [(0.5, 20.0, "call"), (0.25, 18.0, "put"), (1.0, 23.0, "call")]):
            res = sl.price_european_mc(model, sl.ContractSpec(k, t, sl.OptionKind(kind)), 3000, seed=rng)
            assert row[3:] == [repr(res.price), "mc", repr(res.std_error), repr(res.ci95[0]),
                               repr(res.ci95[1]), "3000"]

    def test_missing_model_file_exits_2(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n1.0,20,call\n")
        code = main(["price", "--model", str(tmp_path / "nope.json"), "--grid", str(grid),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_short_grid_row_exits_2(self, tmp_path, model_file, capsys):
        mf, _ = model_file
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n1.0,20\n")
        code = main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


@pytest.fixture
def unpriceable_model_file(tmp_path):
    """A Gamma model whose short-dated deep OTM put sums are negative
    beyond truncation noise at 64 terms, so the cosine pricer raises."""
    prm = sl.RegimeParams(-0.5, 0.8, 0.3, 0.3)
    model = sl.SwitchingModel((prm, prm), 2.5, 1.0, sl.Family.GAMMA, 20.0, 0.04)
    f = tmp_path / "gamma.json"
    save_model(model, f)
    return f


class TestFailuresLeaveNoOutput:
    def test_price_pricing_error_exits_2(self, tmp_path, unpriceable_model_file, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n0.02,2,put\n0.02,5,put\n")
        out = tmp_path / "o.csv"
        code = main(["price", "--model", str(unpriceable_model_file), "--grid", str(grid),
                     "--out", str(out), "--n-terms", "64"])
        assert code == 2
        assert "beyond truncation noise" in capsys.readouterr().err
        assert not out.exists()

    def test_payoff_surface_pricing_error_exits_2(self, tmp_path, unpriceable_model_file, capsys):
        out = tmp_path / "s.csv"
        code = main(["payoff-surface", "--model", str(unpriceable_model_file), "--out", str(out),
                     "--tmin", "0.02", "--tmax", "0.02", "--nt", "1", "--kmin", "2", "--kmax", "5",
                     "--nk", "2", "--kind", "put", "--n-terms", "64"])
        assert code == 2
        assert "beyond truncation noise" in capsys.readouterr().err
        assert not out.exists()

    def test_price_mc_bad_path_count_exits_2(self, tmp_path, model_file, capsys):
        mf, _ = model_file
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n0.5,20,call\n")
        out = tmp_path / "o.csv"
        code = main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(out),
                     "--method", "mc", "--paths", "50"])
        assert code == 2
        assert "n_paths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["cos", "mc"])
    @pytest.mark.parametrize(
        "row,message",
        [("0.25,inf,call", "strike must be finite and > 0, got inf"),
         ("0.5,inf,put", "strike must be finite and > 0, got inf"),
         ("inf,20,call", "maturity must be finite and > 0, got inf")],
    )
    def test_price_infinite_grid_entry_exits_2(self, tmp_path, capsys, row, message, method):
        """Without the check an infinite strike priced to -inf, 0 or NaN and
        an infinite maturity overflowed; the grid reader now names the file
        and line."""
        prm = (sl.RegimeParams(0.01, 0.3, 2.0, 2.0), sl.RegimeParams(-0.1, 0.6, 1.0, 4.0))
        mf = tmp_path / "model.json"
        save_model(sl.SwitchingModel(prm, 20.0, 10.0, sl.Family.GAMMA, 20.0, 0.04), mf)
        grid = tmp_path / "grid.csv"
        grid.write_text(f"maturity,strike,kind\n{row}\n")
        out = tmp_path / "o.csv"
        code = main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(out),
                     "--method", method, "--paths", "1000"])
        assert code == 2
        assert f"{grid} line 2: {message}" in capsys.readouterr().err
        assert not out.exists()


def _json_with_literals(doc: dict, **literals: str) -> str:
    """doc as JSON text, each named field written as the given literal
    (1e400, which JSON reads as inf, or NaN)."""
    text = json.dumps({**doc, **{field: f"@{field}@" for field in literals}})
    for field, literal in literals.items():
        text = text.replace(f'"@{field}@"', literal)
    return text


class TestNonFiniteMarketInputs:
    """A model or market file with a non-finite rate or spot, or with an
    infinite intensity where Monte Carlo must sample the chain, exits 2,
    names the file and writes nothing."""

    MODEL = {"family": "gamma", "lambda12": 20.0, "lambda21": 10.0, "r": 0.04, "s0": 20.0,
             "regimes": [{"mu": 0.01, "sigma": 0.3, "alpha": 2.0, "beta": 2.0},
                         {"mu": -0.1, "sigma": 0.6, "alpha": 1.0, "beta": 4.0}]}

    @pytest.mark.parametrize("method", ["cos", "mc"])
    @pytest.mark.parametrize(
        "field, literal, message",
        [("r", "NaN", "r must be finite"), ("r", "1e400", "r must be finite"), ("s0", "1e400", "s0 must be > 0")],
    )
    def test_price_model_file(self, tmp_path, capsys, method, field, literal, message):
        """Before the check these priced to nan, inf or a wrong finite
        price (20.0 for a call at r = 1e400) and exited 0."""
        mf = tmp_path / "model.json"
        mf.write_text(_json_with_literals(self.MODEL, **{field: literal}))
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n0.5,20,call\n0.5,18,put\n")
        out = tmp_path / "o.csv"
        code = main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(out),
                     "--method", method, "--paths", "1000"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(mf) in err and message in err
        assert not out.exists()

    @staticmethod
    def _cli(*args):
        """The command in a child process, which the timeout can stop:
        before the check these runs never returned."""
        env = os.environ | {"PYTHONPATH": str(SRC)}
        return subprocess.run([sys.executable, "-m", "switchlevy.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_price_mc_infinite_intensities(self, tmp_path):
        mf = tmp_path / "model.json"
        mf.write_text(_json_with_literals(self.MODEL, lambda12="1e400", lambda21="1e400"))
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n0.5,20,call\n")
        out = tmp_path / "o.csv"
        run = self._cli("price", "--model", str(mf), "--grid", str(grid), "--out", str(out), "--method", "mc")
        assert run.returncode == 2, run.stderr
        assert "finite switching intensities" in run.stderr
        assert not out.exists()

    def test_calibrate_infinite_intensities(self, tmp_path):
        market = {"s0": 20.0, "r": 0.04, "lambda12": 2.5, "lambda21": 1.0}
        mf = tmp_path / "market.json"
        mf.write_text(_json_with_literals(market, lambda12="1e400", lambda21="1e400"))
        qf = tmp_path / "quotes.csv"
        qf.write_text("maturity,strike,kind,mid\n0.5,24,call,0.3\n")
        out = tmp_path / "o.json"
        run = self._cli("calibrate", "--quotes", str(qf), "--market", str(mf), "--out", str(out),
                        "--family", "ig", "--max-iters", "3", "--mc-paths", "500")
        assert run.returncode == 2, run.stderr
        assert "finite switching intensities" in run.stderr
        assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_and_well_formed(self, tmp_path, model_file):
        mf, _ = model_file
        texts = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            assert main(["simulate", "--model", str(mf), "--out", str(out), "--seed", "1"]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        header, rows = _read_csv(tmp_path / "p1.csv")
        assert header == ["time", "log_price", "regime"]
        times = np.array([float(r[0]) for r in rows])
        assert times[0] == 0.0 and times[-1] == 1.0
        assert np.all(np.diff(times) > 0)
        assert {r[2] for r in rows} <= {"1", "2"}

    def test_infinite_horizon_exits_2(self, tmp_path, model_file, capsys):
        """It overflowed the step count with a traceback and exit 1."""
        mf, _ = model_file
        out = tmp_path / "p.csv"
        assert main(["simulate", "--model", str(mf), "--horizon", "inf", "--out", str(out)]) == 2
        assert "horizon < inf" in capsys.readouterr().err
        assert not out.exists()


class TestPlotCfCommand:
    def test_grid_and_unit_value_at_zero(self, tmp_path, model_file):
        mf, model = model_file
        out = tmp_path / "cf.csv"
        code = main(["plot-cf", "--model", str(mf), "--out", str(out),
                     "--umin", "-2", "--umax", "2", "--n", "5"])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["u", "re", "im"]
        assert len(rows) == 5
        mid = rows[2]
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(mid[2]) == pytest.approx(0.0, abs=1e-12)


class TestEstimateCommand:
    def test_threshold_rule(self, tmp_path):
        dates, prices = synthetic_price_history()
        pf = tmp_path / "prices.csv"
        write_price_csv(pf, dates, prices)
        out = tmp_path / "fit.json"
        code = main(["estimate", "--prices", str(pf), "--out", str(out),
                     "--method", "mom", "--family", "gamma",
                     "--regime-rule", "threshold:0.02"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["family"] == "gamma" and doc["method"] == "mom"
        assert len(doc["regimes"]) == 2
        assert doc["intensities"]["lambda12"] > 0
        assert doc["n_returns"]["regime1"] + doc["n_returns"]["regime2"] == len(dates) - 1

    def test_windows_rule(self, tmp_path):
        dates, prices = synthetic_price_history()
        pf = tmp_path / "prices.csv"
        write_price_csv(pf, dates, prices)
        wf = tmp_path / "windows.json"
        wf.write_text('[["2012-11-16", "2014-11-16"], ["2017-02-06", "2018-06-05"]]')
        out = tmp_path / "fit.json"
        code = main(["estimate", "--prices", str(pf), "--out", str(out),
                     "--method", "mom", "--family", "ig",
                     "--regime-rule", f"windows:{wf}"])
        assert code == 0
        doc = json.loads(out.read_text())
        b = sl.ParamBounds()
        for blk in doc["regimes"]:
            assert b.contains(sl.RegimeParams(blk["mu"], blk["sigma"], blk["alpha"], blk["beta"]))

    def test_gamma_mle_output_does_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        """The split Gamma inverse CDF keeps every bit: one worker, the
        default count and three workers write the same fitted JSON."""
        rng = np.random.default_rng(41)
        n = 400
        dl = sl.sample_increment(sl.SubordinatorSpec(sl.Family.GAMMA, 10.0, 10.0), sl.TRADING_DT, rng, size=n)
        sigma = np.where((np.arange(n) // 40) % 2 == 0, 0.3, 0.8)
        z = 0.05 * dl + sigma * np.sqrt(dl) * rng.standard_normal(n)
        dates = [date(2020, 1, 1) + timedelta(days=k) for k in range(n + 1)]
        pf = tmp_path / "prices.csv"
        write_price_csv(pf, dates, 50.0 * np.exp(np.concatenate(([0.0], np.cumsum(z)))))
        outputs = []
        for cpus in (1, None, 3):
            if cpus is not None:
                monkeypatch.setattr(sl.subordinators, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"fit-{cpus}.json"
            code = main(["estimate", "--prices", str(pf), "--out", str(out), "--method", "mle",
                         "--family", "gamma", "--regime-rule", "threshold:0.04"])
            assert code == 0
            outputs.append(out.read_bytes())
            monkeypatch.undo()
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bad_rule_exits_2(self, tmp_path):
        dates, prices = synthetic_price_history()
        pf = tmp_path / "prices.csv"
        write_price_csv(pf, dates, prices)
        code = main(["estimate", "--prices", str(pf), "--out", str(tmp_path / "o.json"),
                     "--regime-rule", "sorcery:13"])
        assert code == 2

    def test_reversed_window_names_the_file(self, tmp_path, capsys):
        dates, prices = synthetic_price_history()
        pf = tmp_path / "prices.csv"
        write_price_csv(pf, dates, prices)
        wf = tmp_path / "w.json"
        wf.write_text('[["2020-03-01", "2020-02-01"]]')
        code = main(["estimate", "--prices", str(pf), "--out", str(tmp_path / "o.json"),
                     "--regime-rule", f"windows:{wf}"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {wf}: invalid windows file: window [2020-03-01, 2020-02-01] is reversed\n"
        )

    @pytest.mark.parametrize(
        "rule, reason",
        [("threshold:abc", "could not convert string to float: 'abc'"),
         ("threshold:-1", "cutoff must be finite and nonnegative, got -1.0"),
         ("threshold:nan", "cutoff must be finite and nonnegative, got nan")],
    )
    def test_bad_threshold_names_the_rule(self, tmp_path, capsys, rule, reason):
        dates, prices = synthetic_price_history()
        pf = tmp_path / "prices.csv"
        write_price_csv(pf, dates, prices)
        out = tmp_path / "o.json"
        assert main(["estimate", "--prices", str(pf), "--out", str(out), "--regime-rule", rule]) == 2
        assert capsys.readouterr().err == f"error: regime rule '{rule}': {reason}\n"
        assert not out.exists()


class TestCalibrateCommand:
    def test_round_trip_json(self, tmp_path, model_file):
        mf, model = model_file
        rows = ["maturity,strike,kind,mid"]
        for t in (0.75, 1.25):
            for k in (19.0, 20.0, 21.0):
                p = sl.price_table(model, [sl.ContractSpec(k, t, sl.OptionKind.CALL)])[0]
                rows.append(f"{t},{k},call,{float(p)!r}")
        qf = tmp_path / "quotes.csv"
        qf.write_text("\n".join(rows) + "\n")
        market = tmp_path / "market.json"
        market.write_text(json.dumps({"s0": 20.0, "r": 0.04, "lambda12": 2.5, "lambda21": 1.0}))
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"regimes": [
            {"mu": p.mu * 1.05, "sigma": p.sigma * 1.05, "alpha": p.alpha * 1.05, "beta": p.beta * 1.05}
            for p in model.regimes
        ]}))
        out = tmp_path / "calib.json"
        code = main(["calibrate", "--quotes", str(qf), "--market", str(market),
                     "--out", str(out), "--family", "ig", "--init", str(init),
                     "--max-iters", "40"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] <= 40
        assert doc["objective_rmse"] < 0.05
        assert len(doc["regimes"]) == 2

    def test_market_file_missing_fields_exits_2(self, tmp_path):
        qf = tmp_path / "quotes.csv"
        qf.write_text("maturity,strike,kind,mid\n1.0,20,call,2.0\n")
        market = tmp_path / "market.json"
        market.write_text(json.dumps({"s0": 20.0}))
        code = main(["calibrate", "--quotes", str(qf), "--market", str(market),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_short_quote_row_exits_2(self, tmp_path, capsys):
        qf = tmp_path / "quotes.csv"
        qf.write_text("maturity,strike,kind,mid\n1.0,20,call\n")
        market = tmp_path / "market.json"
        market.write_text(json.dumps({"s0": 20.0, "r": 0.04, "lambda12": 2.5, "lambda21": 1.0}))
        code = main(["calibrate", "--quotes", str(qf), "--market", str(market),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"regimes": [{"mu": 0.0, "sigma": 0.3, "alpha": 1.0}] * 2},
            {"regimes": [{"mu": 0.0, "sigma": 0.3, "alpha": 1.0, "beta": 1.0}]},
            {"regimes": [{"mu": 0.0, "sigma": 0.3, "alpha": 1.0, "beta": 1.0}] * 3},
            {"params": []},
        ],
    )
    def test_bad_init_file_exits_2(self, tmp_path, doc):
        qf = tmp_path / "quotes.csv"
        qf.write_text("maturity,strike,kind,mid\n1.0,20,call,2.0\n")
        market = tmp_path / "market.json"
        market.write_text(json.dumps({"s0": 20.0, "r": 0.04, "lambda12": 2.5, "lambda21": 1.0}))
        init = tmp_path / "init.json"
        init.write_text(json.dumps(doc))
        code = main(["calibrate", "--quotes", str(qf), "--market", str(market),
                     "--out", str(tmp_path / "o.json"), "--init", str(init)])
        assert code == 2
        assert not (tmp_path / "o.json").exists()


class TestCalibrateInputFiles:
    """A bad --market or --init file exits 2, names the file and writes nothing."""

    MARKET = {"s0": 20.0, "r": 0.04, "lambda12": 2.5, "lambda21": 1.0}

    def _run(self, tmp_path, capsys, quotes, market, init=None):
        qf = tmp_path / "quotes.csv"
        qf.write_text("maturity,strike,kind,mid\n" + quotes)
        mf = tmp_path / "market.json"
        mf.write_text(market if isinstance(market, str) else json.dumps(market))
        argv = ["calibrate", "--quotes", str(qf), "--market", str(mf), "--out", str(tmp_path / "o.json"),
                "--family", "ig", "--max-iters", "3", "--mc-paths", "500"]
        if init is not None:
            (tmp_path / "init.json").write_text(init)
            argv += ["--init", str(tmp_path / "init.json")]
        code = main(argv)
        assert code == 2
        assert not (tmp_path / "o.json").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{s0: 20}", "", '{"s0": 20.0,'])
    def test_malformed_market_json(self, tmp_path, capsys, text):
        err = self._run(tmp_path, capsys, "1.0,20,call,2.0\n", text)
        assert str(tmp_path / "market.json") in err

    @pytest.mark.parametrize("text", ["{regimes: []}", "[", "not json"])
    def test_malformed_init_json(self, tmp_path, capsys, text):
        err = self._run(tmp_path, capsys, "1.0,20,call,2.0\n", self.MARKET, init=text)
        assert str(tmp_path / "init.json") in err

    @pytest.mark.parametrize("field", ["mu", "sigma", "alpha", "beta"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_nonfinite_init_value(self, tmp_path, capsys, field, value):
        block = {"mu": 0.0, "sigma": 0.3, "alpha": 1.0, "beta": 1.0}
        text = json.dumps({"regimes": [block, block]})
        text = text.replace(f'"{field}": {json.dumps(block[field])}', f'"{field}": {value}', 1)
        err = self._run(tmp_path, capsys, "1.0,20,call,2.0\n", self.MARKET, init=text)
        assert str(tmp_path / "init.json") in err
        assert "finite" in err

    def test_init_outside_bounds_names_the_value(self, tmp_path, capsys):
        block = {"mu": 0.0, "sigma": 0.3, "alpha": 1.0, "beta": 1.0}
        init = json.dumps({"regimes": [block, {**block, "alpha": 200.0}]})
        err = self._run(tmp_path, capsys, "1.0,20,call,2.0\n", self.MARKET, init=init)
        assert "initial regime 2 alpha = 200.0 is outside the bounds [1e-06, 100.0]" in err

    @pytest.mark.parametrize(
        "quotes", ["1.0,20,put,1.5\n", "0.5,20,call,1.2\n0.5,24,call,0.3\n"], ids=["put", "otm-call"]
    )
    @pytest.mark.parametrize(
        "field, value, message",
        [("s0", -20.0, "s0 must be > 0"), ("s0", 0.0, "s0 must be > 0"),
         ("lambda12", -1.0, "intensities must be >= 0"), ("lambda21", -0.5, "intensities must be >= 0"),
         ("lambda12", float("nan"), "intensities must be >= 0"), ("r", float("nan"), "r must be finite"),
         ("r", float("1e400"), "r must be finite"), ("s0", float("1e400"), "s0 must be > 0")],
    )
    def test_invalid_market_values(self, tmp_path, capsys, quotes, field, value, message):
        err = self._run(tmp_path, capsys, quotes, {**self.MARKET, field: value})
        assert str(tmp_path / "market.json") in err
        assert message in err


class TestBsCheckCommand:
    def test_cos_column_matches_closed_form(self, capsys):
        assert main(["bs-check", "--seed", "7", "--paths", "20000"]) == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines()
            if l.strip().startswith("(") and l.strip()[1].isdigit()
        ]
        assert len(lines) == 3
        for line in lines:
            cells = [c.strip() for c in line.split("|")]
            cos_price, bs_price = float(cells[1]), float(cells[2])
            assert abs(cos_price - bs_price) < 1e-3


class TestPayoffSurfaceCommand:
    def test_surface_grid(self, tmp_path, model_file):
        mf, _ = model_file
        out = tmp_path / "surface.csv"
        code = main(["payoff-surface", "--model", str(mf), "--out", str(out),
                     "--tmin", "0.5", "--tmax", "1.5", "--nt", "3",
                     "--kmin", "16", "--kmax", "24", "--nk", "5"])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["maturity", "strike", "price"]
        assert len(rows) == 15
        # calls decrease in strike within one maturity
        by_t = {}
        for r in rows:
            by_t.setdefault(r[0], []).append(float(r[2]))
        for prices in by_t.values():
            assert all(a >= b - 1e-9 for a, b in zip(prices, prices[1:]))


class TestCsvCells:
    """Every float cell is the repr of the library's value, bit for bit,
    and every line ends in CRLF."""

    def _cells(self, path):
        data = path.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
        return _read_csv(path)

    def test_price_cos(self, tmp_path, model_file):
        mf, model = model_file
        grid = tmp_path / "grid.csv"
        grid.write_text("maturity,strike,kind\n1.0,18,call\n1.0,22,put\n0.5,20.5,call\n")
        out = tmp_path / "prices.csv"
        assert main(["price", "--model", str(mf), "--grid", str(grid), "--out", str(out)]) == 0
        call, put = sl.OptionKind.CALL, sl.OptionKind.PUT
        contracts = [sl.ContractSpec(18.0, 1.0, call), sl.ContractSpec(22.0, 1.0, put),
                     sl.ContractSpec(20.5, 0.5, call)]
        prices = sl.price_table(model, contracts)
        _, rows = self._cells(out)
        assert rows == [[repr(c.maturity), repr(c.strike), c.kind.value, repr(float(p)), "cos"]
                        for c, p in zip(contracts, prices)]

    def test_simulate(self, tmp_path, model_file):
        mf, model = model_file
        out = tmp_path / "path.csv"
        assert main(["simulate", "--model", str(mf), "--out", str(out),
                     "--horizon", "2", "--dt", "0.01", "--seed", "5"]) == 0
        path = sl.simulate_path(model, 2.0, 0.01, np.random.default_rng(5))
        _, rows = self._cells(out)
        assert rows == [[repr(float(t)), repr(float(z)), str(int(s))]
                        for t, z, s in zip(path.times, path.log_prices, path.regimes)]

    def test_plot_cf(self, tmp_path, model_file):
        mf, model = model_file
        out = tmp_path / "cf.csv"
        argv = ["plot-cf", "--model", str(mf), "--out", str(out), "--t", "0.7", "--umin", "-3", "--umax", "5",
                "--n", "17"]
        assert main(argv) == 0
        u = np.linspace(-3.0, 5.0, 17)
        phi = sl.switching_cf(sl.CharFn(model, 0.7), u)
        _, rows = self._cells(out)
        assert rows == [[repr(float(a)), repr(float(b.real)), repr(float(b.imag))] for a, b in zip(u, phi)]

    def test_payoff_surface(self, tmp_path, model_file):
        mf, model = model_file
        out = tmp_path / "surface.csv"
        argv = ["payoff-surface", "--model", str(mf), "--out", str(out), "--tmin", "0.3", "--tmax", "1.1",
                "--nt", "3", "--kmin", "17", "--kmax", "23", "--nk", "4", "--kind", "put"]
        assert main(argv) == 0
        contracts = [sl.ContractSpec(float(k), float(t), sl.OptionKind.PUT)
                     for t in np.linspace(0.3, 1.1, 3) for k in np.linspace(17.0, 23.0, 4)]
        prices = sl.price_table(model, contracts)
        _, rows = self._cells(out)
        assert rows == [[repr(c.maturity), repr(c.strike), repr(float(p))] for c, p in zip(contracts, prices)]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["price", "--model", "m.json"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2


# each subcommand's options: flag -> (type, default, choices, required, help)
REQUIRED = (None, None, None, True, None)
SEED = (int, 0, None, False, None)
OPTION_TABLES = {
    "price": {
        "--model": REQUIRED,
        "--grid": (None, None, None, True, "CSV with maturity,strike,kind"),
        "--out": REQUIRED,
        "--method": (None, "cos", ["cos", "mc"], False, None),
        "--n-terms": (int, 512, None, False, None),
        "--paths": (int, 100_000, None, False, None),
        "--dt": (float, 1 / 250, None, False, None),
        "--seed": SEED,
    },
    "simulate": {
        "--model": REQUIRED,
        "--out": REQUIRED,
        "--horizon": (float, 1.0, None, False, None),
        "--dt": (float, 1 / 250, None, False, None),
        "--seed": SEED,
    },
    "plot-cf": {
        "--model": REQUIRED,
        "--out": REQUIRED,
        "--t": (float, 1.0, None, False, None),
        "--umin": (float, -20.0, None, False, None),
        "--umax": (float, 20.0, None, False, None),
        "--n": (int, 401, None, False, None),
    },
    "estimate": {
        "--prices": REQUIRED,
        "--out": REQUIRED,
        "--method": (None, "mom", ["mom", "mde", "mle"], False, None),
        "--family": (None, "gamma", ["gamma", "ig"], False, None),
        "--regime-rule": (None, "threshold:3.0", None, False, "threshold:<c> or windows:<json file>"),
        "--seed": SEED,
    },
    "calibrate": {
        "--quotes": REQUIRED,
        "--market": (None, None, None, True, "JSON with s0, r, lambda12, lambda21"),
        "--out": REQUIRED,
        "--family": (None, "gamma", ["gamma", "ig"], False, None),
        "--init": (None, None, None, False, "JSON with a 'regimes' list of parameter blocks"),
        "--max-iters": (int, 1000, None, False, None),
        "--mc-paths": (int, 20_000, None, False, None),
        "--seed": SEED,
    },
    "bs-check": {
        "--seed": SEED,
        "--paths": (int, 100_000, None, False, None),
    },
    "payoff-surface": {
        "--model": REQUIRED,
        "--out": REQUIRED,
        "--tmin": (float, 0.25, None, False, None),
        "--tmax": (float, 2.0, None, False, None),
        "--nt": (int, 8, None, False, None),
        "--kmin": (float, None, None, True, None),
        "--kmax": (float, None, None, True, None),
        "--nk": (int, 15, None, False, None),
        "--kind": (None, "call", ["call", "put"], False, None),
        "--n-terms": (int, 512, None, False, None),
    },
}


class TestOptionTables:
    """Every subcommand takes the options of OPTION_TABLES and no others,
    each with its flag, type, default (and the default's type), choices,
    `required` and help; only their order is free."""

    @staticmethod
    def _subcommands():
        parser = build_parser()
        return next(a for a in parser._actions if a.dest == "command").choices

    def test_subcommands(self):
        assert set(self._subcommands()) == set(OPTION_TABLES)

    @pytest.mark.parametrize("command", list(OPTION_TABLES))
    def test_options(self, command):
        table = {}
        for action in self._subcommands()[command]._actions:
            if action.dest != "help":
                assert len(action.option_strings) == 1, action.option_strings
                table[action.option_strings[0]] = (
                    action.type, action.default, type(action.default), action.choices, action.required, action.help
                )
        expected = {
            flag: (kind, default, type(default), choices, required, text)
            for flag, (kind, default, choices, required, text) in OPTION_TABLES[command].items()
        }
        assert table == expected


class TestCsvEncoding:
    """An input CSV that is not UTF-8 exits 2 with an error that names the
    file and the line holding the first bad byte."""

    LATIN1 = "café".encode("latin-1")

    def test_prices(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_bytes(b"date,price\n2020-01-01,100\n2020-01-02,101 # " + self.LATIN1 + b"\n")
        code = main(["estimate", "--prices", str(prices), "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert f"{prices} line 3" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_quotes(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_bytes(b"maturity,strike,kind,mid\r\n1.0,20,call,2.0\r\n1.0,21," + self.LATIN1 + b",1.5\r\n")
        market = tmp_path / "market.json"
        market.write_text(json.dumps({"s0": 20.0, "r": 0.04, "lambda12": 2.5, "lambda21": 1.0}))
        code = main(["calibrate", "--quotes", str(quotes), "--market", str(market),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert f"{quotes} line 3" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_grid(self, tmp_path, capsys, model_file):
        grid = tmp_path / "grid.csv"
        grid.write_bytes(b"maturity,strike,kind # " + self.LATIN1 + b"\n1.0,20,call\n")
        code = main(["price", "--model", str(model_file[0]), "--grid", str(grid),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert f"{grid} line 1" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()
