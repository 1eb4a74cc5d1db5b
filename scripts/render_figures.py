#!/usr/bin/env python3
"""Render the built-in counterexample instances to SVG files.

Writes one figure per built-in instance into the output directory
(default ./figures), each showing the data, the truthful fit, and the fit
after the documented deviation: ``truthfit plot --builtin NAME`` for each.
"""

import argparse
import os
import sys

from truthfit import cli
from truthfit.audit import BUILTIN_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    for name in BUILTIN_NAMES:
        path = os.path.join(args.outdir, f"{name}.svg")
        code = cli.main(["plot", "--builtin", name, "--out", path])
        if code != cli.EXIT_OK:
            return code
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
