"""`witness`: certify that two points share an orbit, in process.

One operation hands the witness function of a pair's module a seeded
point x and g . x, with g drawn on the side it acts, and checks the
returned group element.  Shapes run from 2x1 to the 16-per-axis CLI cap,
and include unitary points with n < m, whose left witness takes the
rank-deficient path of ``isometry_between``.  Nothing here calls the
``pairs.check_*`` functions, ``seesaw`` or sympy.

The symplectic left witness and ``symplectic_svd`` are left out: on about
one seeded point in a few thousand, ``witt_extend`` returns S with
S^T J S - J far above roundoff relative to ||S||^2, and ``symplectic_svd``
returns a small sigma with a relative error near 1e-9 where numpy's
eigenvalues are good to 1e-14.  An operation that fails only on some
inputs cannot be part of a workload whose failure share must repeat
exactly; both faults are recorded in CHANGES.md.
"""

from __future__ import annotations

from dualpairs import general_linear, symplectic, unitary

import checks
import inputs
from inputs import Op

SHAPES = {
    "unitary": [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (12, 8), (16, 12),
                (16, 16), (3, 8), (6, 12), (4, 16)],
    "symplectic": [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (12, 8), (16, 12),
                   (16, 16), (4, 8), (8, 14)],
    "general_linear": [(2, 1), (3, 2), (4, 4), (6, 3), (8, 6), (12, 8),
                       (16, 12), (16, 16)],
}
SIDES = {"unitary": ("left", "right"), "symplectic": ("right",),
         "general_linear": ("left", "right")}
_MODULE = {"unitary": unitary, "symplectic": symplectic,
           "general_linear": general_linear}


def _library_point(pair: str, x):
    return general_linear.CotangentPoint(*x) if pair == "general_linear" else x


def witness_op(pair: str, side: str, n: int, m: int, rng) -> Op:
    x = inputs.random_point(pair, n, m, rng)
    group, dim = inputs.side_group(pair, side, n, m)
    x2 = inputs.act(pair, side, inputs.group_element(group, dim, rng), x)
    fn = getattr(_MODULE[pair], f"witness_{side}")
    a, b = _library_point(pair, x), _library_point(pair, x2)
    return Op(f"witness_{side}/{pair}/{n}x{m}", lambda: fn(a, b),
              lambda rep: checks.witness(pair, side, x, x2, rep.witness))


class Workload:
    children = False
    block_rounds = 3  # 144 operations, about 0.1 s

    def __init__(self, seed: int, workdir=None, trace_dir=None):
        self.seed = seed
        self.ops0 = self.build(0)
        for op in self.build(inputs.WARMUP_ROUND):
            op.check(op.call())

    def build(self, r: int) -> list[Op]:
        """The operations of round r, on inputs of their own."""
        ops = []
        for pair in inputs.PAIRS:
            for n, m in SHAPES[pair]:
                for side in SIDES[pair]:
                    rng = inputs.rng_for(self.seed, r, len(ops))
                    ops.append(witness_op(pair, side, n, m, rng))
        return ops
