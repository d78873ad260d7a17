"""Tests of the benchmark itself: each checker accepts a right answer and
rejects a wrong one, traced counts repeat exactly, and the benchmark
refuses to run without the library's sources.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import workload_cli  # noqa: E402
from dualpairs import general_linear  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402
from workload_witness import witness_op  # noqa: E402


@pytest.mark.parametrize("pair", inputs.PAIRS)
@pytest.mark.parametrize("side", ["left", "right"])
def test_witness_check_rejects_perturbed_witness(pair, side):
    rng = inputs.rng_for(7, 0, 0)
    x = inputs.random_point(pair, 5, 3, rng)
    group, dim = inputs.side_group(pair, side, 5, 3)
    y = inputs.act(pair, side, inputs.group_element(group, dim, rng), x)
    g = witness_op(pair, side, 5, 3, inputs.rng_for(7, 0, 0)).call().witness
    checks.witness(pair, side, x, y, g)
    with pytest.raises(checks.CheckError):
        checks.witness(pair, side, x, y, g + 1e-3 * rng.standard_normal(g.shape))


def test_label_check_rejects_changed_block_size():
    label = inputs.jordan_label(8, 6, inputs.rng_for(7, 2))
    blocks = tuple((complex(re, im), c) for re, im, c in label["blocks"])
    jd = general_linear.JordanData(blocks, tuple(label["nilpotent"]), 8, 6)
    zl, _ = general_linear.jordan_correspond(jd)
    got = general_linear.jordan_structure(zl, side="left")
    checks.label(inputs.canonical_label(got.blocks, got.nilpotent, got.n, got.m), label)
    changed = json.loads(json.dumps(label))
    changed["blocks"][0][2] += 1
    with pytest.raises(checks.CheckError):
        checks.label(changed, label)


def test_integral_normal_form_is_exact_and_on_the_label_orbit():
    rng = inputs.rng_for(7, 3)
    label = inputs.jordan_label(10, 7, rng)
    Q, P = inputs.integral_normal_form(label, rng)
    zeta = Q @ P.T
    assert np.array_equal(zeta, np.round(zeta))
    got = general_linear.jordan_structure(zeta, side="left")
    checks.label(inputs.canonical_label(got.blocks, got.nilpotent, got.n, got.m), label)


def test_cli_check_rejects_exit_status_1():
    rng = inputs.rng_for(7, 4)
    x = inputs.random_point("unitary", 4, 3, rng)
    g = inputs.group_element("unitary", 4, rng)
    y = g @ x
    payload = json.dumps({"witness": workload_cli.matrix_obj(g)})
    check = workload_cli.check_witness("unitary", "left", x, y)
    check(subprocess.CompletedProcess([], 0, payload, ""))
    with pytest.raises(checks.CheckError, match="exit status 1"):
        check(subprocess.CompletedProcess([], 1, payload, "error: level mismatch"))


def test_tracer_records_only_inside_an_operation():
    tracer = Tracer()
    f = tracer._wrap("linalg.f", lambda v: v + 1)
    assert f(1) == 2  # outside a root span: not recorded
    assert tracer.span(ROOT, lambda: f(2)) == 3
    assert [tracer.names[k] for k in tracer.name] == [ROOT, "linalg.f"]
    assert list(tracer.parent) == [-1, 0]


def _traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith("calls_per_op")}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts("structure"), _traced_counts("structure")
    assert first == second
    assert first["pairs.tangent_omega.calls_per_op"] > 0
    witness = _traced_counts("witness")
    assert witness["linalg.calls_per_op"] > 0
    assert witness["pairs.tangent_omega.calls_per_op"] == 0  # never checks structure


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
