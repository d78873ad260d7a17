"""Momentum maps, transitivity witnesses and orbit normal forms for
three commuting matrix group actions: U(n) x U(m) on complex matrices,
Sp(2n,R) x O(m) on real matrices, and GL(n,R) x GL(m,R) on pairs
(Q, P).

Each pair lives in its own module (``unitary``, ``symplectic``,
``general_linear``); ``pairs`` holds the shared instance container and
verification checks, ``seesaw`` ties the three together through algebra
embeddings, and ``cli`` is the command-line harness (imported on demand:
``from dualpairs import cli``).
"""

from . import general_linear, jsonio, linalg, pairs, seesaw, symplectic, unitary
from .pairs import (
    PAIR_IDS,
    DualPairInstance,
    LevelMismatchError,
    MomentumValue,
    WitnessReport,
    act,
    check_equivariance,
    check_level_invariance,
    check_lie_weinstein,
    check_pairing_identity,
    momentum,
)

__version__ = "0.1.0"

__all__ = [
    "DualPairInstance",
    "LevelMismatchError",
    "MomentumValue",
    "PAIR_IDS",
    "WitnessReport",
    "act",
    "check_equivariance",
    "check_level_invariance",
    "check_lie_weinstein",
    "check_pairing_identity",
    "general_linear",
    "jsonio",
    "linalg",
    "momentum",
    "pairs",
    "seesaw",
    "symplectic",
    "unitary",
    "__version__",
]
