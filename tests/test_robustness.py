"""The CLI's contract on extreme and degenerate inputs.

Every command either succeeds with finite JSON or exits with its typed
code (2 input, 3 contract, 4 inconsistency) and one line on stderr, and it
prints no warning, whatever the reports.
"""

import json
import warnings

import numpy as np
import pytest

from truthfit import DataSet, write_dataset
from truthfit.cli import main

LINE = np.arange(4.0).reshape(-1, 1)

#: name -> (positions, reports)
DATA = {
    "limit": (LINE, [1e308, -1e308, 0.0, 5.0]),
    "limit-swapped": (LINE, [-1e308, 1e308, 0.0, 1.0]),
    "huge-y": (LINE, [1e300, 5e299, 2.5e299, 1.25e299]),
    "sum-overflow": (LINE, [1.7e308, 1.7e308, -1.7e308, 0.0]),
    "one-agent": (np.zeros((1, 1)), [1.0]),
    "subnormal": (LINE, [5e-324, 1e-323, 0.0, 5e-324]),
    "too-few-in-d2": (np.array([[0.0, 0.0], [1.0, 0.0]]), [1.0, 2.0]),
    "d0": (np.zeros((4, 0)), [1.0, 2.0, 3.0, 4.0]),
    "tiny-x": (1e-300 * LINE, [0.0, 1.0, -1.0, 2.0]),
    "huge-x": (1e200 * LINE, [0.0, 1.0, 0.0, 5.0]),
}

COMMANDS = {
    "fit": ["fit"],
    "audit-sp": ["audit", "sp"],
    "audit-gsp": ["audit", "gsp", "--max-coalition", "2", "--max-evals", "50"],
    "influence": ["influence"],
    "efficiency": ["efficiency"],
}


def _finite(token):
    raise ValueError(f"non-finite number {token} in the JSON")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("mechanism", ["ols", "l1erm", "brown-mood", "tukey"])
@pytest.mark.parametrize("name", DATA)
def test_cli_keeps_its_contract(tmp_path, capsys, name, mechanism, command):
    xs, ys = DATA[name]
    csv = tmp_path / "data.csv"
    write_dataset(csv, DataSet(xs, np.array(ys)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(COMMANDS[command] + ["--mechanism", mechanism, "--data", str(csv)])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if code:
        assert out == "" and len(err.splitlines()) == 1
    else:
        assert err == ""
        json.loads(out, parse_constant=_finite)
