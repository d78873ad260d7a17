"""`structure`: verify one seeded instance the way the suite does, in process.

One operation runs, on one point of one pair, ``check_lie_weinstein``
and ``check_pairing_identity`` / ``check_equivariance`` on both sides;
for the unitary pair also ``seesaw.check_diagram_sp_u`` and
``unitary.jacobian_rank_right``; for the general linear pair also
``seesaw.check_diagram_sp_gl`` and an exact-integer Jordan round trip,
label -> ``jordan_correspond`` -> ``jordan_structure`` on both sides.
The time goes to Python loops over algebra bases and to sympy.
"""

from __future__ import annotations

import numpy as np

from dualpairs import general_linear, pairs, seesaw, unitary

import checks
import inputs
from inputs import Op

# Fifty-one shapes a round, and one round is one block of the worker.
# Costs grow roughly like (n m)^2; the shapes stop at 12 per axis and
# about 130 ms a check, so a round takes about 1.2 s and the ten blocks
# a run needs take about 12 s (one 16x16 general linear check alone
# takes 1.1 s).  The shapes are spaced evenly in rank over the candidate
# costs, so the p50 rank (about 15 ms) and the p90 rank (about 55 ms)
# have neighbours within about ten per cent and sit on no gap between
# cost classes.  Unitary shapes with n < m give the jacobian rank check
# points with zero singular values.
SHAPES = {
    "unitary": [(5, 1), (8, 1), (5, 2), (11, 1), (12, 1), (3, 5), (10, 2),
                (7, 3), (12, 2), (9, 3), (10, 3), (11, 3), (12, 3), (5, 8),
                (10, 4), (5, 10), (6, 9), (6, 10), (6, 12), (11, 7), (12, 8)],
    "symplectic": [(2, 1), (5, 1), (6, 1), (4, 2), (4, 3), (8, 2), (10, 2),
                   (4, 6), (12, 2), (6, 6), (8, 6), (6, 9), (6, 10), (12, 5),
                   (8, 8), (7, 10), (9, 8), (8, 10)],
    "general_linear": [(3, 1), (6, 1), (8, 1), (10, 1), (5, 3), (8, 2), (12, 2),
                       (10, 3), (8, 5), (11, 5), (10, 7), (11, 7)],
}
WARMUP_SHAPE = (3, 2)


def _jordan_data(label: dict) -> general_linear.JordanData:
    blocks = tuple((complex(re, im), c) for re, im, c in label["blocks"])
    return general_linear.JordanData(blocks, tuple(label["nilpotent"]),
                                     label["n"], label["m"])


def structure_op(pair: str, n: int, m: int, rng) -> Op:
    x = inputs.random_point(pair, n, m, rng)
    point = general_linear.CotangentPoint(*x) if pair == "general_linear" else x
    inst = pairs.DualPairInstance(pair, n, m, point)
    args = {}
    for side in ("left", "right"):
        group, dim = inputs.side_group(pair, side, n, m)
        args[side] = (inputs.group_element(group, dim, rng),
                      inputs.algebra_element(group, dim, rng),
                      inputs.algebra_element(group, dim, rng))
    label = inputs.jordan_label(n, m, rng) if pair == "general_linear" else None

    def call():
        out = {"lw": pairs.check_lie_weinstein(inst)}
        for side, (g, xi, zeta) in args.items():
            out[f"pairing_{side}"] = pairs.check_pairing_identity(inst, xi, zeta, side)
            out[f"equivariance_{side}"] = pairs.check_equivariance(inst, side, g)
        if pair == "unitary":
            out["seesaw"] = seesaw.check_diagram_sp_u(point)
            out["jacobian_rank"] = unitary.jacobian_rank_right(point)
        elif pair == "general_linear":
            out["seesaw"] = seesaw.check_diagram_sp_gl(point)
            zl, zr = general_linear.jordan_correspond(_jordan_data(label))
            out["label_left"] = general_linear.jordan_structure(zl, side="left")
            out["label_right"] = general_linear.jordan_structure(zr, side="right", n=n)
        return out

    def check(out):
        scale = inputs.point_scale(x)
        size = n * m
        checks.lie_weinstein(out["lw"], n, m, scale)
        for side, (g, xi, zeta) in args.items():
            checks.residual(f"pairing residual ({side})", out[f"pairing_{side}"], size,
                            scale ** 2 * np.linalg.norm(xi) * np.linalg.norm(zeta))
            checks.residual(f"equivariance residual ({side})", out[f"equivariance_{side}"],
                            size, np.linalg.cond(g) ** 2 * scale ** 2)
        if "seesaw" in out:
            for leg, value in out["seesaw"].items():
                checks.residual(f"seesaw residual ({leg})", value, size, scale ** 2)
        if pair == "unitary":
            checks.jacobian_rank(out["jacobian_rank"], x)
        if label is not None:
            for key in ("label_left", "label_right"):
                got = out[key]
                checks.label(inputs.canonical_label(got.blocks, got.nilpotent,
                                                    got.n, got.m), label)
    return Op(f"structure/{pair}/{n}x{m}", call, check)


class Workload:
    children = False
    block_rounds = 1

    def __init__(self, seed: int, workdir=None, trace_dir=None):
        self.seed = seed
        self.ops0 = self.build(0)
        # the warm-up pass is one small instance per pair; its Jordan
        # round trip pays the lazy sympy import
        for k, pair in enumerate(inputs.PAIRS):
            rng = inputs.rng_for(seed, inputs.WARMUP_ROUND, k)
            op = structure_op(pair, *WARMUP_SHAPE, rng)
            op.check(op.call())

    def build(self, r: int) -> list[Op]:
        """The operations of round r, on inputs of their own."""
        ops = []
        for pair in inputs.PAIRS:
            for n, m in SHAPES[pair]:
                ops.append(structure_op(pair, n, m, inputs.rng_for(self.seed, r, len(ops))))
        return ops
