"""Golden suite reports and CLI outputs: any change shows as a diff here.

``tests/golden`` holds the reports of the default ``dualpairs suite`` and
of ``dualpairs suite --trials 20 --seed 3``, plus ``provenance.json``,
which records the numpy version and the BLAS that wrote them.  Under the
same numpy and BLAS a regenerated report must equal its golden byte for
byte.  Anywhere else floating-point sums may round differently, so every
record must keep its identity and its exact ``pass`` flag, and every
residual must lie within 1e-14 of the golden one.

``tests/golden/cli`` holds, for one small seeded shape of each pair, the
files ``gen`` writes with no partner and with each ``--partner`` mode,
and the output of ``momentum`` and ``witness`` on both sides and of
``orbit``.  They follow the same rule: bytes under the recorded numpy
and BLAS, otherwise the same JSON structure with every float within
1e-12 relative of the golden one.

After a deliberate change, rewrite all the goldens with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden``.
"""

import contextlib
import ctypes
import glob
import io
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

# one small seeded shape per pair; sp with m > n gives a coupled pair
CLI_SHAPES = {"unitary": (3, 2), "symplectic": (2, 3), "general_linear": (3, 2)}
CLI_SEED = "5"
CLI_FLOAT_TOL = 1e-12


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


def _cli(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0, argv
    return buf.getvalue().encode()


def cli_outputs(pair: str, tmp: Path) -> dict:
    """The golden CLI outputs of one pair, keyed by file name."""
    n, m = CLI_SHAPES[pair]
    out = {}
    for partner in ("gen", "fiber-left", "fiber-right", "normal-form"):
        extra = [] if partner == "gen" else ["--partner", partner]
        _cli("gen", pair, str(n), str(m), "--seed", CLI_SEED, *extra,
             "--out", str(tmp / partner))
        for path in sorted(tmp.glob(partner + ".*json")):
            out[path.name] = path.read_bytes()
    for side in ("left", "right"):
        out[f"momentum-{side}.json"] = _cli("momentum", str(tmp / "gen.json"),
                                            "--side", side)
        out[f"witness-{side}.json"] = _cli(
            "witness", str(tmp / f"fiber-{side}.json"),
            str(tmp / f"fiber-{side}.partner.json"), "--side", side)
    out["witness-normal-form.json"] = _cli(
        "witness", str(tmp / "normal-form.json"),
        str(tmp / "normal-form.partner.json"), "--side", "left")
    out["orbit.json"] = _cli("orbit", str(tmp / "gen.json"))
    out["orbit-normal-form.json"] = _cli("orbit", str(tmp / "normal-form.json"))
    return out


def compare_json(new, old, where="") -> list:
    """Structure exactly, floats within CLI_FLOAT_TOL relative."""
    if isinstance(old, float) and isinstance(new, float):
        ok = abs(new - old) <= CLI_FLOAT_TOL * max(1.0, abs(old))
        return [] if ok else [f"{where}: {old!r} -> {new!r}"]
    if type(new) is not type(old):
        return [f"{where}: {type(old).__name__} -> {type(new).__name__}"]
    if isinstance(old, dict):
        if sorted(new) != sorted(old):
            return [f"{where}: keys {sorted(old)} -> {sorted(new)}"]
        return [p for k in old for p in compare_json(new[k], old[k], f"{where}.{k}")]
    if isinstance(old, list):
        if len(new) != len(old):
            return [f"{where}: length {len(old)} -> {len(new)}"]
        return [p for i, (a, b) in enumerate(zip(new, old))
                for p in compare_json(a, b, f"{where}[{i}]")]
    return [] if new == old else [f"{where}: {old!r} -> {new!r}"]


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


@pytest.mark.parametrize("pair", sorted(CLI_SHAPES))
def test_cli_outputs_match_golden(pair, tmp_path):
    new = cli_outputs(pair, tmp_path)
    folder = GOLDEN / "cli" / pair
    assert sorted(new) == sorted(p.name for p in folder.iterdir())
    recorded = json.loads((GOLDEN / "provenance.json").read_text())
    same_blas = blas_provenance() == recorded
    for name, data in new.items():
        old = (folder / name).read_bytes()
        if same_blas:
            assert data == old, f"cli/{pair}/{name} differs from its golden"
        else:
            assert compare_json(json.loads(data), json.loads(old), name) == []


def test_compare_json_catches_what_matters():
    old = json.loads((GOLDEN / "cli" / "general_linear" / "witness-left.json").read_text())
    assert compare_json(old, old) == []
    new = json.loads(json.dumps(old))
    new["residual"] += 1e-13 * max(1.0, abs(new["residual"]))
    assert compare_json(new, old) == []
    for edit in ({"residual": old["residual"] + 1e-6}, {"side": "right"},
                 {"witness": {**old["witness"], "rows": old["witness"]["rows"] + 1}},
                 {"cond": None}, {"extra": 1}):
        assert compare_json({**old, **edit}, old) != []


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
        for pair in CLI_SHAPES:
            folder = GOLDEN / "cli" / pair
            folder.mkdir(parents=True, exist_ok=True)
            for old in folder.iterdir():
                old.unlink()
            (Path(tmp) / pair).mkdir()
            for name, data in cli_outputs(pair, Path(tmp) / pair).items():
                (folder / name).write_bytes(data)
    (GOLDEN / "provenance.json").write_text(json.dumps(blas_provenance(), indent=2) + "\n")
