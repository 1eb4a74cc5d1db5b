"""Smoke runs of the scripts under ``scripts/``."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import truthfit
from truthfit.audit import BUILTIN_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(truthfit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_efficiency_table_prints_every_mechanism_and_the_hard_instance(tmp_path):
    proc = run_script("efficiency_table.py", "--trials", "2", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "2 random instances, n = 9, d = 1"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:7]}
    assert list(rows) == ["l1erm", "quantile(0.4)", "crm(N,N)", "brown-mood", "tukey"]
    assert all(float(worst) >= float(mean) >= 1.0 for worst, mean in rows.values())
    assert [line.split()[0] for line in lines[-3:]] == ["n=3", "n=5", "n=10"]
    assert all(line.endswith("= 2.000000000") for line in lines[-3:])


def test_render_figures_writes_one_svg_per_builtin_instance(tmp_path):
    proc = run_script("render_figures.py", "--outdir", str(tmp_path / "figures"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    paths = [tmp_path / "figures" / f"{name}.svg" for name in BUILTIN_NAMES]
    assert proc.stdout.splitlines() == [str(p) for p in paths]
    assert all(ET.parse(p).getroot().tag == "{http://www.w3.org/2000/svg}svg" for p in paths)
