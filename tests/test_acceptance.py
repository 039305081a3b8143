"""End-to-end acceptance suite.

Each test_criterion_N covers one acceptance criterion and prints a single
"[criterion N] PASS/FAIL" line (visible with pytest -s, or in captured
output otherwise). The trained model and the evaluation grid are shared
module-scoped fixtures because they dominate the runtime.
"""

import csv
import hashlib
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    blas_build,
    cli_env,
    fd_loss,
    model_digest_mismatch,
    one_blas_thread,
    openblas_corename,
)
from ngparse.engine import InferConfig, infer, model_selector, oracle_selector
from ngparse.guider import (
    TrainConfig,
    _step_accuracy,
    init_model,
    loss_and_gradients,
    predict_rule_distribution,
    save_model,
    train,
)
from ngparse.parser import reference_parse
from ngparse.sampler import (
    SampleBucket,
    curriculum_schedule,
    derive_seed,
    extract_training_pairs,
    sample_corpus,
)
from ngparse.search import SearchConfig, iddfs_parse
from ngparse.evaluate import evaluate_grid
from ngparse.tree import pretty_print


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def big_corpus(g):
    """10,000 seeded programs with depth <= 12 and length <= 40."""
    bucket = SampleBucket(4, 40, 1, 12, seed=derive_seed("accept", 1))
    t0 = time.perf_counter()
    corpus = sample_corpus(g, bucket, 10_000)
    return corpus, time.perf_counter() - t0


@pytest.fixture(scope="module")
def full_model(g):
    """The real curriculum run (3x over 4 stages, depth <= 9, length <= 15)."""
    schedule = curriculum_schedule(4, base_seed=0)
    for b in schedule:
        assert b.max_depth <= 9 and b.max_length <= 15
    cfg = TrainConfig(
        iters_per_stage=800,
        programs_per_stage=800,
        heldout_programs=150,
        eval_every=100,
        seed=0,
    )
    t0 = time.perf_counter()
    with one_blas_thread():
        model, log = train(g, schedule, cfg)
    return model, log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid_records(g, full_model):
    """Full evaluation grid for the guided fallback parser."""
    model, _, _ = full_model
    return evaluate_grid(
        g,
        methods=["ngsi"],
        depths=range(6, 12),
        lengths=range(15, 31),
        per_cell=100,
        seed=derive_seed("accept", 5),
        model=model,
    )


# ---------------------------------------------------------------------------
# 1. Oracle equivalence


def test_criterion_1_oracle_equivalence(g, big_corpus):
    corpus, gen_s = big_corpus
    selector = oracle_selector(g)
    cfg = InferConfig(mode="fallback")
    t0 = time.perf_counter()
    bad = sum(
        1
        for tokens, tree in corpus
        if infer(g, tokens, selector, cfg) != tree
    )
    infer_s = time.perf_counter() - t0
    total = gen_s + infer_s
    _report(
        1,
        bad == 0 and total < 60.0,
        f"{len(corpus) - bad}/{len(corpus)} exact, "
        f"{total:.1f}s total (gen {gen_s:.1f}s + infer {infer_s:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 2. Round-trip soundness


def test_criterion_2_round_trip(g, big_corpus):
    corpus, _ = big_corpus
    bad = 0
    for tokens, tree in corpus:
        parsed = reference_parse(g, tokens)
        if parsed != tree or pretty_print(g, parsed) != tokens:
            bad += 1
        if pretty_print(g, reference_parse(g, pretty_print(g, tree))) != tokens:
            bad += 1
    _report(2, bad == 0, f"{bad} round-trip failures out of {len(corpus)}")


# ---------------------------------------------------------------------------
# 3. Gradient check


def test_criterion_3_gradient_check(g):
    pool_corpus = sample_corpus(g, SampleBucket(4, 12, 1, 9, seed=17), 40)
    pool = [p for _, t in pool_corpus for p in extract_training_pairs(g, t)]
    eps, worst, models = 1e-6, 0.0, 120
    for seed in range(models):
        m = init_model(g, d_emb=4, d_h=4, seed=seed, dtype=np.float32)
        rng = np.random.default_rng(seed)
        batch = [pool[int(rng.integers(0, len(pool)))] for _ in range(3)]
        _, grads = loss_and_gradients(g, batch, m)
        names = list(m.params)
        for _ in range(8):
            name = names[int(rng.integers(0, len(names)))]
            p = m.params[name]
            idx = tuple(int(rng.integers(0, s)) for s in p.shape)
            lp = fd_loss(g, m, batch, name, idx, eps)
            lm = fd_loss(g, m, batch, name, idx, -eps)
            fd = (lp - lm) / (2 * eps)
            ana = grads[name][idx]
            worst = max(worst, abs(ana - fd) / max(abs(ana), abs(fd), 1e-3))
    _report(
        3, worst < 1e-3, f"max relative error {worst:.2e} over {models} tiny models"
    )


# sha256 of save_model(full_model), one per OpenBLAS kernel, each
# measured under OPENBLAS_CORETYPE with one BLAS thread, the one
# full_model trains on: the kernel rounds the float32 training products
# its own way (see test_training_output_is_pinned).
PINNED_FULL_MODEL_SHA256 = {
    "SkylakeX": "9d9f89ea409ac08d97b587377dffd5355b896dcaa1d82f2e4b67d471b01eac95",
    "Haswell": "91d5de45e7c40dff2e8ad37ff639dbd3b6057df5c5ed1ce78c2cd650e4022b09",
    "Sandybridge": "8659f25ea6c8cde1058d595f93478abad038f953d74a0801e4882ddd717f7980",
}


def test_full_model_bytes_are_pinned(full_model, tmp_path):
    model, _, _ = full_model
    save_model(model, tmp_path / "m.bin")
    digest = hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest()
    mismatch = model_digest_mismatch(PINNED_FULL_MODEL_SHA256, openblas_corename(), digest)
    assert mismatch is None, f"{mismatch} ({blas_build()})"


# ---------------------------------------------------------------------------
# 4. In-distribution guider quality


def test_criterion_4_in_distribution_accuracy(g, full_model):
    model, _, train_s = full_model
    heldout_corpus = sample_corpus(
        g, SampleBucket(4, 15, 1, 9, seed=derive_seed("accept", 4)), 300
    )
    pairs = [p for _, t in heldout_corpus for p in extract_training_pairs(g, t)]
    acc = _step_accuracy(g, model, pairs)
    _report(
        4,
        acc >= 0.99 and train_s <= 7200.0,
        f"held-out step accuracy {acc:.4f} on {len(pairs)} pairs, "
        f"training took {train_s:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Generalization beyond the training distribution


def test_criterion_5_generalization(grid_records):
    d11 = [r.exact_match for r in grid_records if r.depth == 11 and r.count > 0]
    l30 = [r.exact_match for r in grid_records if r.length == 30 and r.count > 0]
    mean_d11 = statistics.mean(d11)
    mean_l30 = statistics.mean(l30)
    _report(
        5,
        mean_d11 >= 0.85 and mean_l30 >= 0.85,
        f"exact match: depth-11 mean {mean_d11:.3f} over {len(d11)} cells, "
        f"length-30 mean {mean_l30:.3f} over {len(l30)} cells",
    )


# ---------------------------------------------------------------------------
# 6. Latency


def test_criterion_6_latency(grid_records):
    p95s = [r.p95_time_s for r in grid_records if r.count > 0]
    worst = max(p95s)
    _report(6, worst < 1.0, f"worst per-cell p95 wall time {worst * 1000:.1f} ms")


# ---------------------------------------------------------------------------
# 7. Baseline contrast


def _median_search_times(g, lengths, n: int = 25) -> list:
    """Median search time per length. The searches alternate between the
    lengths program by program, so a slow spell of the host falls on all
    of them alike."""
    corpora = [
        sample_corpus(
            g,
            SampleBucket(length, length, 1, 12, seed=derive_seed("accept", 7, length)),
            n,
        )
        for length in lengths
    ]
    cfg = SearchConfig(max_depth=24, time_limit_s=120.0)
    times = [[] for _ in lengths]
    for programs in zip(*corpora):
        for (tokens, _), out in zip(programs, times):
            res = iddfs_parse(g, tokens, cfg)
            assert res.status == "found"
            out.append(res.elapsed_s)
    return [statistics.median(t) for t in times]


def test_criterion_7_baseline_contrast(g, full_model):
    # Exact match on the short corpus. Programs of depth exactly 6 only
    # exist at length 4 under this grammar, so the corpus spans lengths
    # 4..12 at depth <= 9 to make "length <= 12" meaningful.
    corpus = sample_corpus(
        g, SampleBucket(4, 12, 1, 9, seed=derive_seed("accept", 7)), 100
    )
    cfg = SearchConfig(max_depth=24, time_limit_s=120.0)
    bad = sum(
        1
        for tokens, tree in corpus
        if not (
            (res := iddfs_parse(g, tokens, cfg)).status == "found"
            and res.tree == tree
        )
    )

    med8, med16 = _median_search_times(g, (8, 16))

    model, _, _ = full_model
    selector = model_selector(g, model)
    icfg = InferConfig(mode="fallback")
    guided_corpus = sample_corpus(
        g, SampleBucket(16, 16, 1, 12, seed=derive_seed("accept", 7, 16)), 25
    )
    guided_max = 0.0
    for tokens, _ in guided_corpus:
        t0 = time.perf_counter()
        infer(g, tokens, selector, icfg)
        guided_max = max(guided_max, time.perf_counter() - t0)

    ok = bad == 0 and med16 >= 4 * med8 and guided_max < 1.0
    _report(
        7,
        ok,
        f"search exact on {len(corpus) - bad}/{len(corpus)}; "
        f"median time {med8 * 1000:.2f}ms @len8 vs {med16 * 1000:.2f}ms @len16 "
        f"(ratio {med16 / med8:.1f}x); guided max {guided_max * 1000:.1f}ms",
    )


# ---------------------------------------------------------------------------
# 8. Masking invariants


def test_criterion_8_masking_invariants(g):
    corpus = sample_corpus(
        g, SampleBucket(4, 15, 1, 9, seed=derive_seed("accept", 8)), 500
    )
    pool = [p for _, t in corpus for p in extract_training_pairs(g, t)]
    nts = [g.nonterminal(n) for n in sorted(nt.name for nt in g.nonterminals)]
    m = init_model(g, d_emb=8, d_h=16, seed=5)
    rng = np.random.default_rng(derive_seed("accept", 8, "probes"))
    violations = 0
    n_probes = 10_000
    for _ in range(n_probes):
        tokens = pool[int(rng.integers(0, len(pool)))].tokens
        nt = nts[int(rng.integers(0, len(nts)))]
        probs = predict_rule_distribution(g, tokens, nt, m)
        applicable = {r.id for r in g.rules_for(nt)}
        off = [probs[i] for i in range(len(probs)) if i not in applicable]
        if any(p != 0.0 for p in off) or abs(probs.sum() - 1.0) > 1e-6:
            violations += 1
    _report(8, violations == 0, f"{violations} violations over {n_probes} probes")


# ---------------------------------------------------------------------------
# 9. Determinism


def _run(args, cwd):
    res = subprocess.run(
        [sys.executable, "-m", "ngparse.cli", *args],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, f"ngparse {' '.join(args)}: {res.stderr}"
    return res


def _eval_payload(path):
    """Eval CSV rows minus the wall-clock columns, which measure the host."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    keep = ("method", "depth", "length", "count", "exact_match", "errors")
    return [tuple(r[k] for k in keep) for r in rows]


def test_criterion_9_determinism(g, tmp_path):
    results = {}
    for run in ("x", "y"):
        d = tmp_path / run
        d.mkdir()
        _run(
            ["gen", "--bucket", "4:15:1:9", "--n", "60", "--seed", "7",
             "--out", str(d / "corpus.txt"), "--pairs", str(d / "pairs.txt")],
            tmp_path,
        )
        _run(
            ["train", "--stages", "1", "--seed", "3", "--d-emb", "8",
             "--d-h", "16", "--iters-per-stage", "10",
             "--programs-per-stage", "60", "--out", str(d / "model.bin"),
             "--log", str(d / "train.csv")],
            tmp_path,
        )
        _run(
            ["eval", "--methods", "oracle", "--depths", "6..8",
             "--lengths", "15..18", "--per-cell", "5", "--seed", "3",
             "--out", str(d / "eval.csv")],
            tmp_path,
        )
        results[run] = {
            name: (d / name).read_bytes()
            for name in ("corpus.txt", "pairs.txt", "model.bin", "train.csv")
        }
        results[run]["eval"] = _eval_payload(d / "eval.csv")

    mismatched = [k for k in results["x"] if results["x"][k] != results["y"][k]]
    _report(
        9,
        not mismatched,
        "byte-identical gen/train artifacts and identical eval records "
        "(wall-clock columns excluded)"
        if not mismatched
        else f"mismatch in {mismatched}",
    )
