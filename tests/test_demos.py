"""Run every narrative demo and pin its output.

The digests are the sha256 of each demo's stdout, frozen from the reports
of the linear-solve tree coefficients.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_spanning_trees.py": "2497d22023a94c9905e1f8da88e5aa65c4b7b12c2050dcaff82f096c8ad0d803",
    "02_jk_residues.py": "952e055e9fddbd273227d011c00ed3d662da2eb9501d4770d1331b28cbe0cb8c",
    "03_abelianization.py": "3bf3a1bf41c60548297b95da19426f82781aee6314a5d77bc4a617f4b6cc808a",
    "04_scattering.py": "4458f5480eac309984986445d993d21db37a9d61205134a15175c09d2cb470a7",
    "05_main_identity.py": "3c3b49a2a089c73efedc3b398b31b2ae8f60690252fc41d25a0fe4e107102a95",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[name]
