"""`cli`: one cold `dualpairs` command per operation, run as a user runs it.

Each command starts a fresh interpreter on ``dualpairs.cli.main`` with
``src`` on the path; the package is not installed.  A round is ten
commands: ``gen`` in each partner mode, ``momentum``, ``witness`` on
each pair, ``orbit`` on two integral ``general_linear`` normal-form
instances whose orbit label the benchmark chose, and one default
``suite``; the commands read instance files that the benchmark wrote in
the documented format.  The symplectic left witness and the symplectic
``orbit`` (which runs ``symplectic_svd``) are left out for the reason
given in workload_witness.py; the default ``suite`` still runs both on
its own fixed inputs.

About 0.4 s of a light command is the numpy/scipy import floor.  The
three heavy commands, the suite and the sympy-backed ``orbit`` calls at
16x12, take about twice as long, with overlapping costs, and fill the
top 3/10 of the ranks.  So the p50 rank (5/10) falls among the light
commands and the p90 rank (9/10) inside the heavy ones, on no gap
between cost classes.  A round is one block of the worker.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import inputs
from inputs import Op

LAUNCH = "import sys; from dualpairs.cli import main; sys.exit(main())"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
COMMAND_TIMEOUT_S = 60
SUITE_RECORDS = 39 * 3  # 39 registered checks, 3 trials by default

# (file stem, pair, side, n, m): points x and g . x for `witness`
WITNESS_FILES = [
    ("w_u_left", "unitary", "left", 16, 12),
    ("w_sp_right", "symplectic", "right", 16, 16),
    ("w_gl_left", "general_linear", "left", 12, 8),
]
# (file stem, n, m): integral general_linear instances with a chosen label
LABEL_FILES = [("nf_a", 16, 12), ("nf_b", 16, 12)]
# (stem, pair, n, m, partner mode) for `gen`
GEN = [
    ("gen_u", "u", 8, 6, "fiber-left"),
    ("gen_sp", "sp", 6, 8, "fiber-right"),
    ("gen_gl", "gl", 8, 5, "normal-form"),
]


# ---------------------------------------------------------------------------
# the documented instance format, written and read without the library

def matrix_obj(M: np.ndarray) -> dict:
    cplx = bool(np.iscomplexobj(M))
    data = ([[[float(v.real), float(v.imag)] for v in row] for row in M] if cplx
            else [[float(v) for v in row] for row in M])
    return {"rows": M.shape[0], "cols": M.shape[1], "complex": cplx, "data": data}


def matrix_from(obj: dict) -> np.ndarray:
    if obj["complex"]:
        return np.array([[complex(re, im) for re, im in row] for row in obj["data"]])
    return np.array(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def instance_obj(pair: str, n: int, m: int, x) -> dict:
    obj = {"kind": pair, "n": n, "m": m}
    if pair == "general_linear":
        obj["Q"], obj["P"] = matrix_obj(x[0]), matrix_obj(x[1])
    else:
        obj["matrix"] = matrix_obj(x)
    return obj


def read_instance(path: Path):
    obj = json.loads(path.read_text())
    if obj["kind"] == "general_linear":
        return obj["kind"], (matrix_from(obj["Q"]), matrix_from(obj["P"]))
    return obj["kind"], matrix_from(obj["matrix"])


def momentum(pair: str, side: str, x) -> np.ndarray:
    """The README's momentum formulas, in numpy."""
    if pair == "unitary":
        return 0.5j * (x @ np.conj(x).T if side == "left" else np.conj(x).T @ x)
    if pair == "symplectic":
        J = inputs.standard_j(x.shape[0] // 2)
        return -0.5 * (x @ x.T @ J if side == "left" else x.T @ J @ x)
    Q, P = x
    return Q @ P.T if side == "left" else P.T @ Q


def _same_level(pair: str, side: str, x, y, what: str):
    a, b = momentum(pair, side, x), momentum(pair, side, y)
    checks.residual(f"{what}: {side} momentum mismatch", np.linalg.norm(a - b),
                    a.size, inputs.point_scale(x) ** 2)


# ---------------------------------------------------------------------------
# checks of each command's answer

def check_exit(proc: subprocess.CompletedProcess) -> None:
    if proc.returncode != 0:
        raise checks.CheckError(f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}")


def _json_out(proc) -> dict:
    check_exit(proc)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise checks.CheckError(f"output is not JSON: {exc}") from exc


def check_gen(workdir: Path, stem: str, partner):
    def check(proc):
        check_exit(proc)
        pair, x = read_instance(workdir / f"{stem}.json")
        _, y = read_instance(workdir / f"{stem}.partner.json")
        # a left move keeps the right momentum and vice versa; the
        # normal-form partner is a left move of the same template
        kept = "left" if partner == "fiber-right" else "right"
        _same_level(pair, kept, x, y, f"gen --partner {partner}")
    return check


def check_momentum(x, pair: str, side: str):
    def check(proc):
        got = matrix_from(_json_out(proc)["value"])
        want = momentum(pair, side, x)
        checks.residual("momentum value error", np.linalg.norm(got - want),
                        want.size, inputs.point_scale(x) ** 2)
    return check


def check_witness(pair: str, side: str, x, y):
    def check(proc):
        checks.witness(pair, side, x, y, matrix_from(_json_out(proc)["witness"]))
    return check


def check_orbit(label: dict):
    def check(proc):
        got = _json_out(proc)["label"]
        blocks = [(complex(re, im), c) for re, im, c in got["blocks"]]
        checks.label(inputs.canonical_label(blocks, got["nilpotent"], got["n"], got["m"]),
                     label)
    return check


def check_suite(workdir: Path):
    def check(proc):
        check_exit(proc)
        summary = json.loads((workdir / "suite_report.json").read_text())["summary"]
        if summary["failed"] != 0 or summary["total"] != SUITE_RECORDS:
            raise checks.CheckError(f"suite summary {summary}, expected "
                                    f"{SUITE_RECORDS} records and none failed")
    return check


# ---------------------------------------------------------------------------

class Workload:
    children = True
    block_rounds = 1

    def __init__(self, seed: int, workdir: Path, trace_dir: Path | None = None):
        self.seed = seed
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.runs = 0
        workdir.mkdir(parents=True, exist_ok=True)
        self.points = {}
        for k, (stem, pair, side, n, m) in enumerate(WITNESS_FILES):
            rng = inputs.rng_for(seed, 0, k)
            x = inputs.random_point(pair, n, m, rng)
            group, dim = inputs.side_group(pair, side, n, m)
            y = inputs.act(pair, side, inputs.group_element(group, dim, rng), x)
            self._write(f"{stem}.json", instance_obj(pair, n, m, x))
            self._write(f"{stem}.partner.json", instance_obj(pair, n, m, y))
            self.points[stem] = (pair, x, y)
        self.labels = {}
        for k, (stem, n, m) in enumerate(LABEL_FILES):
            rng = inputs.rng_for(seed, 1, k)
            label = inputs.jordan_label(n, m, rng)
            x = inputs.integral_normal_form(label, rng)
            self._write(f"{stem}.json", instance_obj("general_linear", n, m, x))
            self.labels[stem] = label
        self.ops0 = self.build(0)
        # warm-up: one cold command primes the page cache and bytecode
        op = next(op for op in self.ops0 if op.name.startswith("momentum"))
        op.check(op.call())

    def _write(self, name: str, obj: dict):
        (self.workdir / name).write_text(json.dumps(obj))

    def command(self, *args: str):
        """Run one cold command in the work directory; the traced form
        goes through the benchmark's launcher, which installs the span
        wrappers before calling main."""
        def call():
            if self.trace_dir is None:
                argv = [sys.executable, "-c", LAUNCH, *args]
            else:
                self.runs += 1
                trace = self.trace_dir / f"cmd-{self.runs:05d}.npz"
                argv = [sys.executable, str(LAUNCHER), str(trace), *args]
            return subprocess.run(argv, cwd=self.workdir, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
        return call

    def build(self, r: int) -> list[Op]:
        """The ten commands of a round; every round runs the same ones."""
        ops = []
        for stem, pair, n, m, partner in GEN:
            args = ["gen", pair, str(n), str(m), "--seed", str(self.seed), "--out", stem,
                    "--partner", partner]
            ops.append(Op(f"gen/{pair}/{partner}", self.command(*args),
                          check_gen(self.workdir, stem, partner)))
        pair, x, _ = self.points["w_gl_left"]
        ops.append(Op(f"momentum/{pair}/right",
                      self.command("momentum", "w_gl_left.json", "--side", "right"),
                      check_momentum(x, pair, "right")))
        for stem, pair, side, n, m in WITNESS_FILES:
            _, x, y = self.points[stem]
            ops.append(Op(f"witness/{pair}/{side}",
                          self.command("witness", f"{stem}.json", f"{stem}.partner.json",
                                       "--side", side),
                          check_witness(pair, side, x, y)))
        for stem, n, m in LABEL_FILES:
            ops.append(Op(f"orbit/general_linear/{stem}",
                          self.command("orbit", f"{stem}.json"),
                          check_orbit(self.labels[stem])))
        ops.append(Op("suite", self.command("suite"), check_suite(self.workdir)))
        return ops
