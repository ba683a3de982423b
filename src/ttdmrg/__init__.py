"""Tensor-train ground-state solvers: classical DMRG sweeps and an additive
two-level variant with a coarse correction step, plus the dense oracles and
flop accounting used to study them at desk scale."""

from .dmrg import SweepConfig, SweepTrace, run_dmrg, split_and_shift
from .eigen import LanczosResult, dense_lowest_eig, dense_sym_svd, lanczos_lowest
from .io import load_mpo, load_tt, save_mpo, save_tt
from .ledger import CostLedger
from .models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from .mpo import (
    MatrixProductOperator,
    identity_mpo,
    mpo_add,
    mpo_inner,
    mpo_scale,
    mpo_transpose,
    rayleigh_quotient,
)
from .sums import OneSiteSumFamily
from .tt import (
    TensorTrain,
    inner,
    orthogonal_family,
    orthogonalize,
    random_tt,
    round_tt,
    separation_ranks,
    tt_add,
    tt_scale,
)
from .twolevel import TwoLevelConfig, TwoLevelTrace, run_two_level

__all__ = [
    "CostLedger",
    "LanczosResult",
    "MatrixProductOperator",
    "OneSiteSumFamily",
    "SweepConfig",
    "SweepTrace",
    "TensorTrain",
    "TwoLevelConfig",
    "TwoLevelTrace",
    "dense_ground_state",
    "dense_lowest_eig",
    "dense_sym_svd",
    "heisenberg_chain",
    "identity_mpo",
    "inner",
    "ising_chain",
    "lanczos_lowest",
    "load_mpo",
    "load_tt",
    "mpo_add",
    "mpo_inner",
    "mpo_scale",
    "mpo_transpose",
    "orthogonal_family",
    "orthogonalize",
    "random_symmetric_mpo",
    "random_tt",
    "rayleigh_quotient",
    "round_tt",
    "run_dmrg",
    "run_two_level",
    "save_mpo",
    "save_tt",
    "separation_ranks",
    "split_and_shift",
    "tt_add",
    "tt_scale",
]
