"""Import footprint: which scipy submodules a run loads, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import switchlevy as sl
import switchlevy.cli

def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.stats") if m in sys.modules)

stages = {"import": loaded()}
p1 = sl.RegimeParams(0.01, 0.3, 2.0, 2.0)
p2 = sl.RegimeParams(-0.1, 0.6, 1.0, 4.0)
model = sl.SwitchingModel((p1, p2), 2.5, 1.0, sl.Family.INVERSE_GAUSSIAN, 20.0, 0.04)
contracts = [sl.ContractSpec(k, 1.0, sl.OptionKind.CALL) for k in (18.0, 20.0, 22.0)]
sl.price_table(model, contracts)
sl.price_european_mc(model, contracts[0], 2000, seed=1)
stages["price"] = loaded()
sl.risk_neutral_drift(p1, sl.Family.GAMMA, 0.04)
stages["drift"] = loaded()
print(json.dumps(stages))
"""


def test_pricing_loads_no_optimizer_or_stats():
    env = os.environ | {"PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    stages = json.loads(out.stdout.splitlines()[-1])
    assert stages == {"import": [], "price": [], "drift": ["scipy.optimize"]}


LINALG_SCRIPT = """
import sys
import switchlevy as sl
import switchlevy.cli

p1 = sl.RegimeParams(0.01, 0.3, 2.0, 2.0)
p2 = sl.RegimeParams(-0.1, 0.6, 1.0, 4.0)
model = sl.SwitchingModel((p1, p2), 2.5, 1.0, sl.Family.INVERSE_GAUSSIAN, 20.0, 0.04)
contract = sl.ContractSpec(20.0, 1.0, sl.OptionKind.CALL)
sl.price_table(model, [contract])
sl.price_european_mc(model, contract, 2000, seed=1)
print("scipy.linalg" in sys.modules)
"""


def test_pricing_loads_no_linalg():
    """The COS cumulants come from the occupation time in closed form, so
    neither the imports nor a COS or Monte Carlo price load scipy.linalg."""
    env = os.environ | {"PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", LINALG_SCRIPT], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


SCIPY_SCRIPT = """
import json, sys
import switchlevy as sl
import switchlevy.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {"import": scipy_loaded()}
p1 = sl.RegimeParams(0.01, 0.3, 2.0, 2.0)
p2 = sl.RegimeParams(-0.1, 0.6, 1.0, 4.0)
contracts = [sl.ContractSpec(k, 1.0, sl.OptionKind.CALL) for k in (18.0, 20.0, 22.0)]
for family in (sl.Family.GAMMA, sl.Family.INVERSE_GAUSSIAN):
    model = sl.SwitchingModel((p1, p2), 2.5, 1.0, family, 20.0, 0.04)
    sl.price_table(model, contracts)
    sl.price_european_mc(model, contracts[0], 2000, seed=1)
stages["price"] = scipy_loaded()
if sys.argv[1] == "bs":
    sl.bs_closed_form(20.0, 20.0, 0.04, 0.3, 1.0, sl.OptionKind.CALL)
else:
    sl.FrozenTerminalSampler(sl.Family.GAMMA, 2.0, 1.0, 1.0, 1_000, seed=16).evaluate(p1, p2)
stages["special"] = "scipy.special" in sys.modules
print(json.dumps(stages))
"""


@pytest.mark.parametrize("last", ["bs", "frozen"])
def test_pricing_loads_no_scipy(last):
    """Importing the package and its CLI, COS prices and Gamma and IG Monte
    Carlo prices load numpy alone; the Black-Scholes reference and the
    frozen sampler's Gamma inverse CDF import scipy.special when called."""
    env = os.environ | {"PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCIPY_SCRIPT, last], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    stages = json.loads(out.stdout.splitlines()[-1])
    assert stages == {"import": [], "price": [], "special": True}
