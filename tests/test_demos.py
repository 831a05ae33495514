import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qetude

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout; a change that alters what a demo prints must
# re-pin it here deliberately.
DEMO_DIGESTS = {
    "01_determinant_and_closed_form.py":
        "ac5500a474e15d6a372cbdf0939aa4c7aa6235ba6ac3f4d02d81cde04d80b9ab",
    "02_discovery_pipelines.py":
        "6722788def8981575fd45f15703427019ba9d26dfb7433d90c8729b7b6a52a74",
    "03_certificate_proof.py":
        "589299faf22570a249e34d3309de5e5af76f823206c6d078f64d04507912aadc",
    "04_series_and_sequences.py":
        "3d904e9f2ff95b1f555b2bc4865872e543dcc024aaf5fa5a25934386fcf7c409",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_unchanged(name):
    src = str(Path(qetude.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("QETUDE_CACHE", None)
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[name]
