"""Golden suite reports: any change to a report shows as a diff here.

``tests/golden`` holds the reports of the default ``dualpairs suite`` and
of ``dualpairs suite --trials 20 --seed 3``, plus ``provenance.json``,
which records the numpy version and the BLAS that wrote them.  Under the
same numpy and BLAS a regenerated report must equal its golden byte for
byte.  Anywhere else floating-point sums may round differently, so every
record must keep its identity and its exact ``pass`` flag, and every
residual must lie within 1e-14 of the golden one.

After a deliberate change to the reports, rewrite all three files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden``.
"""

import ctypes
import glob
import json
import os
from pathlib import Path

import numpy as np
import pytest

from dualpairs import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = {
    "suite_default.json": [],
    "suite_t20_s3.json": ["--trials", "20", "--seed", "3"],
}
RESIDUAL_TOL = 1e-14


def blas_provenance() -> dict:
    """numpy version, BLAS build and, for OpenBLAS, the kernel core in use.

    OpenBLAS picks its kernels from the CPU at load time, so the core
    name is part of what decides the rounding.  It is None when the
    library cannot be asked.
    """
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    core = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                core = fn().decode()
                break
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": core}


def run_suite(args, out: Path) -> bytes:
    assert cli.main(["suite", *args, "--out", str(out)]) == 0
    return out.read_bytes()


def _record_key(rec):
    return (rec["check"], rec["pair"], tuple(rec["dims"]), rec["seed"])


def compare_reports(new: dict, old: dict) -> list:
    """Differences that matter across BLAS builds; empty when none."""
    problems = []
    if new["config"] != old["config"]:
        problems.append(f"config {new['config']} != {old['config']}")
    if new["summary"] != old["summary"]:
        problems.append(f"summary {new['summary']} != {old['summary']}")
    if [_record_key(r) for r in new["records"]] != [_record_key(r) for r in old["records"]]:
        problems.append("record identities or order differ")
        return problems
    for a, b in zip(new["records"], old["records"]):
        if a["pass"] != b["pass"]:
            problems.append(f"{_record_key(a)}: pass {b['pass']} -> {a['pass']}")
        if not abs(a["residual"] - b["residual"]) <= RESIDUAL_TOL:
            problems.append(f"{_record_key(a)}: residual {b['residual']!r} -> {a['residual']!r}")
    return problems


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_suite_report_matches_golden(name, tmp_path, capsys):
    new = run_suite(REPORTS[name], tmp_path / name)
    capsys.readouterr()
    old = (GOLDEN / name).read_bytes()
    recorded = json.loads((GOLDEN / "provenance.json").read_text())
    if blas_provenance() == recorded:
        assert new == old, f"{name} differs from its golden; see the module docstring"
    else:
        assert compare_reports(json.loads(new), json.loads(old)) == []


def test_compare_reports_catches_what_matters():
    old = json.loads((GOLDEN / "suite_default.json").read_text())
    assert compare_reports(old, old) == []

    def edited(field, value, index=5):
        new = json.loads(json.dumps(old))
        new["records"][index][field] = value
        return new

    rec = old["records"][5]
    assert compare_reports(edited("residual", rec["residual"] + 0.5e-14), old) == []
    assert compare_reports(edited("residual", rec["residual"] + 1e-13), old) != []
    assert compare_reports(edited("pass", not rec["pass"]), old) != []
    assert compare_reports(edited("seed", rec["seed"] + 1), old) != []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, args in REPORTS.items():
            (GOLDEN / name).write_bytes(run_suite(args, Path(tmp) / name))
    (GOLDEN / "provenance.json").write_text(json.dumps(blas_provenance(), indent=2) + "\n")
