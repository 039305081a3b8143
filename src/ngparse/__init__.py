"""Grammar-driven recursive parsing with a learned per-layer rule
selector, an exhaustive-search baseline, and a generalization evaluation
harness for a small WHILE-style language."""

from .grammar import Grammar, Nonterminal, ProductionRule, Token, build_grammar, validate_grammar
from .tree import Ast, depth, deserialize, node_count, pretty_print, serialize
from .parser import ParseError, reference_parse
from .decompose import DecompositionFailure, decompose
from .sampler import (
    SampleBucket,
    TrainingPair,
    curriculum_schedule,
    extract_training_pairs,
    sample_corpus,
    sample_program,
)
from .guider import (
    AdamState,
    GuiderModel,
    TrainConfig,
    adam_step,
    init_model,
    load_model,
    loss_and_gradients,
    predict_rule_distribution,
    save_model,
    train,
)
from .engine import InferConfig, infer, model_selector, oracle_selector
from .search import SearchConfig, SearchResult, iddfs_parse
from .evaluate import EvalRecord, evaluate_grid, write_csv

__version__ = "0.1.0"
