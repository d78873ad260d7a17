"""Command-line front end.

Subcommands: ``gen`` writes random instances (optionally with a
same-level partner), ``momentum``/``witness``/``orbit`` operate on
instance files, and ``suite`` runs the registered verification battery
and writes a JSON report.

All randomness flows through a counter-based generator keyed by
(master seed, stream index), so identical commands reproduce identical
bytes.  Exit codes: 0 success, 1 failed check or momentum mismatch,
2 malformed input.

Instance files are JSON objects {"kind", "n", "m", ...} with integer n
and m, holding either a single "matrix" (complex for the unitary pair,
2n x m real for the symplectic pair) or a "Q"/"P" pair for the general
linear pair; each pair module reads and writes its own fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import general_linear, seesaw, symplectic, unitary
from .jsonio import matrix_to_obj, read_int, report_record
from .linalg import (
    group_residual,
    omega_complex,
    omega_real,
    random_group_element,
    relative_diff,
    stream_rng,
)
from .pairs import (
    PAIR_IDS,
    PAIRS,
    DualPairInstance,
    LevelMismatchError,
    act,
    algebra_size,
    algebra_tag,
    bracket,
    check_equivariance,
    check_level_invariance,
    check_lie_weinstein,
    check_pairing_identity,
    momentum,
    orbit,
    random_algebra_element,
)

_PAIR_ALIASES = {
    "unitary": "unitary",
    "u": "unitary",
    "symplectic": "symplectic",
    "sp": "symplectic",
    "gl": "general_linear",
    "general_linear": "general_linear",
}

_DIM_LIMIT = 16


def _normalize_pair(name: str) -> str:
    try:
        return _PAIR_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown pair {name!r}; use unitary, symplectic or gl")


def _validate_dims(pair: str, n: int, m: int):
    if not (1 <= n <= _DIM_LIMIT and 1 <= m <= _DIM_LIMIT):
        raise ValueError(f"dimensions must lie in 1..{_DIM_LIMIT}")
    PAIRS[pair].check_dims(n, m)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _instance_payload(inst: DualPairInstance) -> dict:
    return {"kind": inst.pair_id, "n": inst.n, "m": inst.m,
            **inst.module.point_to_obj(inst.point)}


def _load_instance(path: str) -> DualPairInstance:
    """The instance in a file, of the pair its kind names."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{path}: not an instance file")
    kind = obj["kind"]
    if kind not in PAIR_IDS:
        raise ValueError(f"{path}: unknown kind {kind!r}")
    try:
        n, m = read_int(obj, "n", path), read_int(obj, "m", path)
        _validate_dims(kind, n, m)
        point = PAIRS[kind].point_from_obj(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    return DualPairInstance(kind, n, m, point)


def _random_instance(pair: str, n: int, m: int, seed: int,
                     stream: int) -> DualPairInstance:
    point = PAIRS[pair].random_point(n, m, stream_rng(seed, stream))
    return DualPairInstance(pair, n, m, point)


def _side_element(inst: DualPairInstance, side: str, seed: int, stream: int):
    """An element of the group acting on inst from side, drawn from (seed, stream)."""
    return random_group_element(inst.module.GROUP[side], algebra_size(inst, side),
                                seed, stream)


def _witness(inst_a: DualPairInstance, inst_b: DualPairInstance, side: str):
    """The pair module's witness and its group's defining residual."""
    mod = inst_a.module
    fn = mod.witness_left if side == "left" else mod.witness_right
    rep = fn(inst_a.point, inst_b.point)
    return rep, group_residual(mod.GROUP[side], rep.witness)


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    pair, n, m = _normalize_pair(args.pair), args.n, args.m
    _validate_dims(pair, n, m)
    base = (args.out or f"{pair}_{n}x{m}_s{args.seed}").removesuffix(".json")
    if args.partner == "normal-form":
        inst, partner = [DualPairInstance(pair, n, m, pt)
                         for pt in PAIRS[pair].normal_form_partners(n, m, args.seed)]
    else:
        inst = _random_instance(pair, n, m, args.seed, 0)
        partner = None
        if args.partner is not None:
            side = "left" if args.partner == "fiber-left" else "right"
            partner = act(inst, side, _side_element(inst, side, args.seed, 1))
    files = [(Path(base + ".json"), inst)]
    if partner is not None:
        files.append((Path(base + ".partner.json"), partner))
    for path, item in files:
        path.write_text(_dump_json(_instance_payload(item)))
        print(path)
    return 0


# ---------------------------------------------------------------------------
# momentum / witness / orbit

def _finite_momentum(inst: DualPairInstance, side: str, path: str):
    """The momentum on one side of the instance in path, refused when
    finite entries overflow it (the reader admits only finite ones)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mv = momentum(inst, side)
    if not np.isfinite(mv.value).all():
        raise ValueError(f"{path}: the {side} momentum overflows float64")
    return mv


def cmd_momentum(args) -> int:
    inst = _load_instance(args.file)
    mv = _finite_momentum(inst, args.side, args.file)
    payload = {
        "pair": inst.pair_id,
        "side": args.side,
        "algebra": mv.algebra,
        "value": matrix_to_obj(mv.value),
        "identity_residual": float(mv.identity_residual()),
    }
    sys.stdout.write(_dump_json(payload))
    return 0


def cmd_witness(args) -> int:
    inst_a, inst_b = _load_instance(args.file_a), _load_instance(args.file_b)
    if inst_b.pair_id != inst_a.pair_id:
        raise ValueError(f"{args.file_b}: holds a {inst_b.pair_id} instance, "
                         f"expected {inst_a.pair_id}")
    if (inst_a.n, inst_a.m) != (inst_b.n, inst_b.m):
        raise ValueError("the two instances have different dimensions")
    rep, defining = _witness(inst_a, inst_b, args.side)
    payload = {
        "pair": inst_a.pair_id,
        "side": args.side,
        "witness": matrix_to_obj(rep.witness),
        "residual": float(rep.residual),
        "defining_residual": defining,
    }
    if rep.cond is not None:
        payload["cond"] = float(rep.cond)
    sys.stdout.write(_dump_json(payload))
    return 0 if rep.residual <= 1e-6 else 1


def cmd_orbit(args) -> int:
    inst = _load_instance(args.file)
    for side in ("left", "right"):
        _finite_momentum(inst, side, args.file)
    rep = orbit(inst)
    payload = {
        "pair": inst.pair_id,
        "label": rep.label,
        "normal_form_left": matrix_to_obj(rep.normal_form_left),
        "normal_form_right": matrix_to_obj(rep.normal_form_right),
    }
    sys.stdout.write(_dump_json(payload))
    return 0


# ---------------------------------------------------------------------------
# suite

_SUITE_DIMS = {
    "unitary": [(2, 2), (3, 2), (4, 3), (2, 1), (3, 3)],
    "symplectic": [(2, 2), (2, 3), (3, 4), (2, 4), (3, 2)],
    "general_linear": [(2, 2), (3, 2), (4, 3), (3, 1), (4, 2)],
}


def _run_sampler(inst, seed, base):
    worst = 0.0
    for side, k in (("left", 1), ("right", 2)):
        g = _side_element(inst, side, seed, base * 8 + k)
        worst = max(worst, group_residual(inst.module.GROUP[side], g))
    return worst


def _run_group_check(side, acting, check, inst, seed, base):
    """check(instance, side, g) with g drawn from the acting side's group."""
    return check(inst, side, _side_element(inst, acting, seed, base * 8 + 1))


def _witness_residual(inst, side, g):
    rep, defining = _witness(inst, act(inst, side, g), side)
    return max(rep.residual, defining)


def _random_algebra_element(inst, side, rng):
    return random_algebra_element(algebra_tag(inst.pair_id, side), algebra_size(inst, side), rng)


def _run_pairing(side, inst, seed, base):
    rng = stream_rng(seed, base * 8 + 3)
    xi = _random_algebra_element(inst, side, rng)
    zeta = _random_algebra_element(inst, side, rng)
    return check_pairing_identity(inst, xi, zeta, side)


def _run_lie_weinstein(inst, seed, base):
    out = check_lie_weinstein(inst)
    defect = abs(out["dim_left_orbit"] + out["dim_right_orbit"]
                 - out["ambient_dim"])
    return max(float(defect), out["cross_omega_residual"])


def _run_svd(inst, seed, base):
    S, D, O, _ = symplectic.symplectic_svd(inst.point)
    return relative_diff(S @ D @ O, inst.point)


def _run_nf_charpoly(inst, seed, base):
    c1 = np.poly(symplectic.momentum_left(inst.point))
    c2 = np.poly(orbit(inst).normal_form_left)
    return float(np.abs(c1 - c2).max() / max(1.0, np.abs(c2).max()))


def _run_rank_profile(inst, seed, base):
    zeta = general_linear.momentum_left(inst.point)
    xi = general_linear.momentum_right(inst.point)
    ok = (general_linear.in_image_left(zeta, inst.m)
          and general_linear.in_image_right(xi, inst.n))
    return 0.0 if ok else 1.0


def _run_jordan_roundtrip(inst, seed, base):
    rng = stream_rng(seed, base * 8 + 4)
    jd = general_linear._random_jordan(inst.n, inst.m, rng)
    zeta, xi = general_linear.jordan_correspond(jd)
    back_l = general_linear.jordan_structure(zeta, side="left")
    back_r = general_linear.jordan_structure(xi, side="right", n=inst.n)
    return 0.0 if back_l == jd and back_r == jd else 1.0


def _run_seesaw(check, inst, seed, base):
    res = check(inst.point)
    return max(res["left"], res["right"])


def _run_omega_real(inst, seed, base):
    rng = stream_rng(seed, base * 8)
    E, F = (unitary.random_point(inst.n, inst.m, rng) for _ in range(2))
    return abs(omega_complex(E, F) - omega_real(unitary.to_real(E), unitary.to_real(F)))


def _run_morphism(embed, inst, seed, base):
    """embed([a, b]) against [embed(a), embed(b)] for two elements of the
    left algebra."""
    rng = stream_rng(seed, base * 8)
    a, b = (_random_algebra_element(inst, "left", rng) for _ in range(2))
    lhs = embed(bracket(a, b))
    rhs = bracket(embed(a), embed(b))
    return float(np.linalg.norm(lhs - rhs))


def _build_registry():
    """(check, pair, threshold, run) rows.  run(inst, seed, base) gets the
    record's instance, drawn from stream base * 8, and draws from later streams."""
    reg = []
    for pair in PAIR_IDS:
        reg.append(("sampler_membership", pair, 1e-9, _run_sampler))
        for side, other in (("left", "right"), ("right", "left")):
            reg.append((f"equivariance_{side}", pair, 1e-9,
                        partial(_run_group_check, side, side, check_equivariance)))
            reg.append((f"level_invariance_{side}", pair, 1e-9,
                        partial(_run_group_check, side, other, check_level_invariance)))
            reg.append((f"pairing_identity_{side}", pair, 1e-9,
                        partial(_run_pairing, side)))
        reg.append(("lie_weinstein", pair, 1e-10, _run_lie_weinstein))
        for side in ("left", "right"):
            reg.append((f"witness_{side}", pair, 1e-7,
                        partial(_run_group_check, side, side, _witness_residual)))
    reg.append(("svd_reconstruction", "symplectic", 1e-8, _run_svd))
    reg.append(("normal_form_charpoly", "symplectic", 1e-6, _run_nf_charpoly))
    reg.append(("momentum_rank_profile", "general_linear", 0.5,
                _run_rank_profile))
    reg.append(("jordan_roundtrip", "general_linear", 0.5,
                _run_jordan_roundtrip))
    reg.append(("seesaw_diagram_u", "unitary", 1e-10,
                partial(_run_seesaw, seesaw.check_diagram_sp_u)))
    reg.append(("seesaw_diagram_gl", "general_linear", 1e-10,
                partial(_run_seesaw, seesaw.check_diagram_sp_gl)))
    reg.append(("omega_realification", "unitary", 1e-12, _run_omega_real))
    reg.append(("embedding_morphism_u", "unitary", 1e-12,
                partial(_run_morphism, seesaw.embed_u_to_sp)))
    reg.append(("embedding_morphism_gl", "general_linear", 1e-12,
                partial(_run_morphism, seesaw.embed_gl_to_sp)))
    return reg


def cmd_suite(args) -> int:
    pairs = {_normalize_pair(p) for p in args.pair} if args.pair else set(PAIR_IDS)
    if args.trials < 1:
        raise ValueError("trials must be at least 1")

    t0 = time.perf_counter()
    records = []
    for idx, (check, pair, threshold, runner) in enumerate(_build_registry()):
        if pair not in pairs:
            continue
        dims_cycle = _SUITE_DIMS[pair]
        for t in range(args.trials):
            n, m = dims = dims_cycle[t % len(dims_cycle)]
            base = idx * 1000 + t
            inst = _random_instance(pair, n, m, args.seed, base * 8)
            residual = float(runner(inst, args.seed, base))
            records.append(report_record(check, pair, list(dims), base,
                                         residual, residual <= threshold))
    records.sort(key=lambda r: (r["check"], r["pair"], str(r["dims"]), r["seed"]))
    passed = sum(1 for r in records if r["pass"])
    report = {
        "config": {"pairs": sorted(pairs), "seed": args.seed, "trials": args.trials},
        "records": records,
        "summary": {"total": len(records), "passed": passed,
                    "failed": len(records) - passed},
    }
    Path(args.out).write_text(_dump_json(report))
    wall = time.perf_counter() - t0
    print(f"{passed}/{len(records)} checks passed; wall {wall:.2f}s; "
          f"report -> {args.out}")
    return 0 if passed == len(records) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualpairs",
        description="momentum maps, witnesses and orbit normal forms "
                    "for three matrix dual pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a random instance file")
    p.add_argument("pair")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partner",
                   choices=["fiber-left", "fiber-right", "normal-form"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("momentum", help="momentum value of an instance file")
    p.add_argument("file")
    p.add_argument("--side", required=True, choices=["left", "right"])
    p.set_defaults(func=cmd_momentum)

    p = sub.add_parser("witness",
                       help="group element linking two same-level instances")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--side", required=True, choices=["left", "right"])
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("orbit",
                       help="orbit label and both canonical momentum values")
    p.add_argument("file")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("suite", help="run the verification battery")
    p.add_argument("--pair", action="append",
                   help="a pair to check, repeatable (default: all three)")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="suite_report.json")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LevelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
