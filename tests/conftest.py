import ctypes
import dataclasses
import os
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import ngparse
from ngparse import guider
from ngparse.grammar import Nonterminal, build_grammar
from ngparse.guider import TrainConfig, init_model, loss_and_gradients, save_model, train
from ngparse.sampler import curriculum_schedule

# The benchmark's trained model, read but never written by the tests.
FIXTURE_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "model.bin"


@lru_cache(maxsize=None)
def _openblas(what, restype, *argtypes):
    """The function openblas_<what> of numpy's bundled OpenBLAS, or None
    when numpy bundles no OpenBLAS that has it (a system BLAS, say)."""
    numpy_dir = Path(np.__file__).resolve().parent
    # Linux wheels put their libraries beside numpy, macOS wheels inside it
    libs = [*(numpy_dir.parent / "numpy.libs").glob("*openblas*"),
            *(numpy_dir / ".dylibs").glob("*openblas*")]
    for path in sorted(libs):
        lib = ctypes.CDLL(str(path))
        # numpy 2 bundles scipy-openblas, numpy 1.22-1.26 a 64-bit-int build
        for name in (f"scipy_openblas_{what}64_", f"openblas_{what}64_", f"openblas_{what}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


def _openblas_string(what):
    get = _openblas(f"get_{what}", ctypes.c_char_p)
    return None if get is None else get().decode()


def openblas_corename():
    """The name of the CPU kernel numpy's bundled OpenBLAS runs ("SkylakeX",
    "Haswell", ...), which OPENBLAS_CORETYPE overrides; None when numpy
    bundles no OpenBLAS that reports one."""
    return _openblas_string("corename")


def blas_build():
    """numpy's version and its OpenBLAS's build string, for the failure
    message of a digest that depends on them."""
    return f"numpy {np.__version__}, {_openblas_string('config') or 'no bundled OpenBLAS'}"


@contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, so that
    its float32 products round the same on any number of cores: on the
    Haswell kernel, the acceptance suite's full training run writes other
    bytes with two threads than with one. Without such an OpenBLAS, the
    block runs as it is."""
    get = _openblas("get_num_threads", ctypes.c_int)
    put = _openblas("set_num_threads", None, ctypes.c_int)
    if get is None or put is None:
        yield
        return
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def model_digest_mismatch(pinned, kernel, digest):
    """Why digest is not the one pinned for the OpenBLAS kernel in pinned
    ({kernel: digest}), or None when it is. Where the kernel cannot be read
    (None), any pinned digest passes."""
    if kernel is None:
        if digest in pinned.values():
            return None
        return f"OpenBLAS kernel unknown; model digest {digest} is none of the pinned ones"
    if kernel not in pinned:
        return f"no model digest pinned for OpenBLAS kernel {kernel}; it reads {digest}"
    if digest != pinned[kernel]:
        return f"OpenBLAS kernel {kernel}: model digest {digest}, pinned {pinned[kernel]}"
    return None


def fd_loss(g, m, pairs, name, idx, delta):
    """Loss with parameter name moved by delta at idx, computed in float64
    so that the finite-difference oracle stays accurate for float32 models
    too."""
    params = {k: v.astype(np.float64) for k, v in m.params.items()}
    params[name][idx] += delta
    return loss_and_gradients(g, pairs, dataclasses.replace(m, params=params))[0]


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
    """Write m's model file with the given file tensors replaced, which may
    be mis-shaped."""
    guider._write_model(path, m, {**guider._file_tensors(m.params), **tensors})


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
