import os
from collections import Counter
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ngparse
from ngparse.grammar import Nonterminal, build_grammar
from ngparse.guider import TrainConfig, init_model, save_model, train
from ngparse.sampler import curriculum_schedule

# The benchmark's trained model, read but never written by the tests.
FIXTURE_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "model.bin"


def cli_env():
    """Environment for a `python -m ngparse.cli` subprocess.

    PYTHONPATH starts with the directory holding the ngparse this process
    imported, so the subprocess runs the same copy whether or not the
    package is installed and whatever its working directory.
    """
    src = str(Path(ngparse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def save_with_tensors(path, m, **tensors):
    """Write m's model file with the given tensors replaced. Goes through a
    stand-in object, because a GuiderModel cannot hold a mis-shaped gate
    tensor."""
    save_model(
        SimpleNamespace(
            params=dict(m.params, **tensors),
            rule_fingerprint=m.rule_fingerprint,
            vocab_fingerprint=m.vocab_fingerprint,
        ),
        path,
    )


def enumerated_trees(g, max_depth, max_length):
    """Exhaustive walk over every tree of depth <= max_depth and yield
    length <= max_length rooted at each nonterminal: per nonterminal id, a
    Counter from (depth, length, first token id, last token id) to the
    number of such trees. Each rule combines its rhs symbols left to
    right, so trees with equal summaries are counted together, not
    listed one by one."""

    @lru_cache(maxsize=None)
    def trees(nt, d):
        out = Counter()
        if d < 1:
            return out
        for r in g.rules_for(nt):
            partial = Counter({(1, 0, None, None): 1})
            for sym in r.rhs:
                if isinstance(sym, Nonterminal):
                    kids = [((kd + 1, *rest), n) for (kd, *rest), n in trees(sym, d - 1).items()]
                else:
                    kids = [((1, 1, sym.id, sym.id), 1)]
                longer = Counter()
                for (pd, pl, pf, _), pn in partial.items():
                    for (kd, kl, kf, kz), kn in kids:
                        if pl + kl <= max_length:
                            longer[(max(pd, kd), pl + kl, kf if pf is None else pf, kz)] += pn * kn
                partial = longer
            out.update(partial)
        return out

    return {nt.id: trees(nt, max_depth) for nt in g.nonterminals}


@pytest.fixture(scope="session")
def g():
    return build_grammar()


@pytest.fixture(scope="session")
def tiny_model(g):
    return init_model(g, d_emb=8, d_h=16, seed=3)


@pytest.fixture(scope="session")
def zero_model(g):
    m = init_model(g, d_emb=8, d_h=16, seed=0)
    for v in m.params.values():
        v[...] = 0.0
    return m


@pytest.fixture(scope="session")
def small_trained(g):
    """Quickly trained small guider; accurate enough for engine/eval tests,
    not the acceptance-grade model."""
    cfg = TrainConfig(
        d_emb=32,
        d_h=64,
        iters_per_stage=250,
        programs_per_stage=300,
        heldout_programs=80,
        eval_every=50,
        seed=1,
    )
    model, log = train(g, curriculum_schedule(2, base_seed=1), cfg)
    return model


@pytest.fixture(scope="session")
def small_model_path(g, small_trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "small.bin"
    save_model(small_trained, path)
    return path
