"""Write a synthetic price history as a `date,price` CSV: n daily returns
of a Gamma-subordinated Brownian motion (Gamma alpha = beta = 10, drift
0.05) whose volatility switches between 0.3 and 0.8 every 40 days, drawn
from seed 41 and starting at a price of 50 on 2020-01-01.

    PYTHONPATH=src python tools/price_history.py N PATH
"""

from __future__ import annotations

import sys
from datetime import date, timedelta

import numpy as np

import switchlevy as sl


def write_history(n: int, path: str) -> None:
    rng = np.random.default_rng(41)
    spec = sl.SubordinatorSpec(sl.Family.GAMMA, 10.0, 10.0)
    dl = sl.sample_increment(spec, sl.TRADING_DT, rng, size=n)
    sigma = np.where((np.arange(n) // 40) % 2 == 0, 0.3, 0.8)
    z = 0.05 * dl + sigma * np.sqrt(dl) * rng.standard_normal(n)
    prices = 50.0 * np.exp(np.concatenate(([0.0], np.cumsum(z))))
    days = [date(2020, 1, 1) + timedelta(days=k) for k in range(n + 1)]
    rows = "".join(f"{d.isoformat()},{float(p)!r}\n" for d, p in zip(days, prices))
    with open(path, "w") as fh:
        fh.write("date,price\n" + rows)


if __name__ == "__main__":
    write_history(int(sys.argv[1]), sys.argv[2])
