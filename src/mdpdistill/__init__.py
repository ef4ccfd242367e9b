"""Small decision-tree controllers for MDP reachability objectives.

The pieces compose as a pipeline: parse a model (`lang`, `build`), bound
its optimal reachability value (`solver`), read the bounds back as a
liberal strategy (`strategy`), weigh states by how much the strategy's
runs rely on them (`importance`), then fit a decision tree to the
important decisions (`dtree`) and compare it against explicit and BDD
representations (`bdd`).
"""

from .build import build_mdp, export_flat, load_model, parse_flat
from .core import (ActionAttr, LiberalStrategy, Mdp, MdpError,
                   MecDecomposition, induce_chain, max_reach_exact, mec_decompose,
                   reach_exact)
from .dtree import DTree, export_dot, export_json, fit_max_leaf, import_json, learn
from .importance import (Domain, ImportanceResult, RunStats, TrainingSet,
                         build_training_set, exact_importance, importance_of, simulate)
from .lang import ModelError, parse_model, parse_predicate
from .bdd import BitLayout, StrategyStore, store_strategy
from .solver import ValueApprox, ValidityReport, brtdp, check_valid, value_iteration
from .strategy import (consulted_dont_care, dump_tsv, evaluate, explicit_size,
                       extract_liberal, truncate)

__version__ = "0.1.0"

__all__ = [
    "ActionAttr", "BitLayout", "DTree", "Domain", "ImportanceResult",
    "LiberalStrategy", "Mdp", "MdpError", "MecDecomposition",
    "ModelError", "RunStats", "StrategyStore", "TrainingSet", "ValidityReport", "ValueApprox",
    "brtdp", "build_mdp", "build_training_set", "check_valid",
    "consulted_dont_care", "dump_tsv", "evaluate", "exact_importance",
    "explicit_size", "export_dot", "export_flat", "export_json",
    "extract_liberal", "fit_max_leaf", "import_json", "importance_of",
    "induce_chain", "learn", "load_model", "max_reach_exact", "mec_decompose",
    "parse_flat", "parse_model", "parse_predicate", "reach_exact", "simulate",
    "store_strategy", "truncate", "value_iteration",
]
