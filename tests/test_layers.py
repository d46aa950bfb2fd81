"""The package's layering rule, each check in a fresh interpreter: the exact
layer runs without mpmath, and the product layer brings mpmath with it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _child(code: str):
    """The JSON that python -c code prints last, run on this tree's src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_verify_dense_bounds_and_small_volume_load_no_mpmath():
    got = _child("""
import contextlib, io, json, sys
from ballratio.cli import main

dense = ",".join(map(str, range(1, 301)))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--n-max", "300"]),
             main(["bounds", "--target", "v", "--n", dense]),
             main(["volume", "--n", "1,2,3,4,5,6,7,8,9"])]
print(json.dumps([codes, [m for m in ("mpmath", "ballratio.gautschi") if m in sys.modules]]))
""")
    assert got == [[0, 0, 0], []]


def test_product_layer_loads_mpmath():
    assert _child("import json, sys, ballratio.gautschi; "
                  "print(json.dumps('mpmath' in sys.modules))")
