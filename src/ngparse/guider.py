"""Learned rule selector: token embedding, unidirectional GRU encoder,
and a linear classifier masked to the rules applicable at a nonterminal.

Forward, backward, and the Adam update are written out by hand (numpy
only); the gradients are checked against finite differences in the test
suite, so no autograd framework is involved on either side.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .grammar import Grammar, Nonterminal

__all__ = [
    "GuiderModel",
    "AdamState",
    "TrainConfig",
    "GuiderError",
    "TrainingDiverged",
    "init_model",
    "gru_cell",
    "encode",
    "predict_rule_distribution",
    "loss_and_gradients",
    "adam_step",
    "train",
    "save_model",
    "load_model",
]

_MAGIC = b"NGSI1"

_GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
_PARAM_NAMES = ("embedding",) + _GATE_NAMES + ("W_out", "b_out")


class GuiderError(Exception):
    pass


class TrainingDiverged(GuiderError):
    def __init__(self, stage: int):
        super().__init__(f"loss became non-finite in stage {stage}")
        self.stage = stage


@dataclass
class GuiderModel:
    params: dict
    d_emb: int
    d_h: int
    vocab_fingerprint: int
    rule_fingerprint: int

    def check_grammar(self, g: Grammar) -> None:
        if (
            self.vocab_fingerprint != g.vocab_fingerprint()
            or self.rule_fingerprint != g.rule_fingerprint()
        ):
            raise GuiderError("model/grammar mismatch")


def init_model(
    g: Grammar,
    d_emb: int = 64,
    d_h: int = 256,
    seed: int = 0,
    dtype=np.float32,
) -> GuiderModel:
    """Uniform [-1/sqrt(d_h), 1/sqrt(d_h)] matrices, zero biases."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d_h)
    V = len(g.vocabulary)
    R = len(g.rules)

    def mat(*shape):
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    params = {
        "embedding": mat(V, d_emb),
        "W_z": mat(d_emb, d_h),
        "U_z": mat(d_h, d_h),
        "b_z": np.zeros(d_h, dtype=dtype),
        "W_r": mat(d_emb, d_h),
        "U_r": mat(d_h, d_h),
        "b_r": np.zeros(d_h, dtype=dtype),
        "W_h": mat(d_emb, d_h),
        "U_h": mat(d_h, d_h),
        "b_h": np.zeros(d_h, dtype=dtype),
        "W_out": mat(d_h, R),
        "b_out": np.zeros(R, dtype=dtype),
    }
    return GuiderModel(
        params, d_emb, d_h, g.vocab_fingerprint(), g.rule_fingerprint()
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_cell(params: dict, x, h):
    """One update: z gates the candidate, (1-z) carries the old state.

    z = sig(W_z x + U_z h + b_z); r = sig(W_r x + U_r h + b_r);
    cand = tanh(W_h x + U_h (r*h) + b_h); out = (1-z)*h + z*cand.
    Works on single vectors or batches (leading axis).
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h))):
        raise GuiderError("non-finite input to recurrent cell")
    return _gru_step(params, x, h)[0]


def _gru_step(params: dict, x, h):
    """The cell's equations without input checks; returns (new state, z,
    r, cand), the gate values being what backprop needs."""
    z = _sigmoid(x @ params["W_z"] + h @ params["U_z"] + params["b_z"])
    r = _sigmoid(x @ params["W_r"] + h @ params["U_r"] + params["b_r"])
    cand = np.tanh(x @ params["W_h"] + (r * h) @ params["U_h"] + params["b_h"])
    return (1.0 - z) * h + z * cand, z, r, cand


# ---------------------------------------------------------------------------
# Batched forward/backward


def _pad(seqs):
    B = len(seqs)
    T = max(len(s) for s in seqs)
    ids = np.zeros((B, T), dtype=np.int64)
    active = np.zeros((B, T), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        active[i, : len(s)] = True
    return ids, active


def _forward(params: dict, seqs, want_cache: bool):
    """Run the encoder over a batch of token-id sequences.

    Returns (final hidden states [B, d_h], cache for backprop or None).
    Padded positions carry the previous hidden state through unchanged.
    """
    V = params["embedding"].shape[0]
    for s in seqs:
        if len(s) == 0:
            raise GuiderError("empty token sequence")
        for tid in s:
            if not 0 <= tid < V:
                raise GuiderError(f"unknown token id {tid}")
    ids, active = _pad(seqs)
    B, T = ids.shape
    dtype = params["embedding"].dtype
    h = np.zeros((B, params["U_z"].shape[0]), dtype=dtype)
    steps = []
    for t in range(T):
        xt = params["embedding"][ids[:, t]]
        h_new, z, r, cand = _gru_step(params, xt, h)
        at = active[:, t][:, None]
        h_next = np.where(at, h_new, h)
        if want_cache:
            steps.append((xt, h, z, r, cand))
        h = h_next
    cache = (ids, active, steps) if want_cache else None
    return h, cache


def _backward_encoder(params: dict, cache, dh):
    """Backprop dh (gradient at final hidden state) through time."""
    ids, active, steps = cache
    B, T = ids.shape
    grads = {
        name: np.zeros_like(params[name])
        for name in ("embedding",) + _GATE_NAMES
    }
    for t in range(T - 1, -1, -1):
        xt, h_prev, z, r, cand = steps[t]
        at = active[:, t][:, None]
        dnew = np.where(at, dh, 0.0)
        dcarry = np.where(at, 0.0, dh)

        dz = dnew * (cand - h_prev)
        dcand = dnew * z
        dh_prev = dnew * (1.0 - z)

        dcand_pre = dcand * (1.0 - cand * cand)
        grads["W_h"] += xt.T @ dcand_pre
        grads["U_h"] += (r * h_prev).T @ dcand_pre
        grads["b_h"] += dcand_pre.sum(axis=0)
        dx = dcand_pre @ params["W_h"].T
        drh = dcand_pre @ params["U_h"].T
        dr = drh * h_prev
        dh_prev += drh * r

        dz_pre = dz * z * (1.0 - z)
        grads["W_z"] += xt.T @ dz_pre
        grads["U_z"] += h_prev.T @ dz_pre
        grads["b_z"] += dz_pre.sum(axis=0)
        dx += dz_pre @ params["W_z"].T
        dh_prev += dz_pre @ params["U_z"].T

        dr_pre = dr * r * (1.0 - r)
        grads["W_r"] += xt.T @ dr_pre
        grads["U_r"] += h_prev.T @ dr_pre
        grads["b_r"] += dr_pre.sum(axis=0)
        dx += dr_pre @ params["W_r"].T
        dh_prev += dr_pre @ params["U_r"].T

        np.add.at(grads["embedding"], ids[:, t], dx)
        dh = dh_prev + dcarry
    return grads


def _rule_masks(g: Grammar) -> np.ndarray:
    masks = np.zeros((len(g.nonterminals), len(g.rules)), dtype=bool)
    for r in g.rules:
        masks[r.lhs.id, r.id] = True
    return masks


def encode(g: Grammar, tokens, m: GuiderModel, states: dict = None) -> np.ndarray:
    """Final hidden state of the encoder for one token sequence.

    states is a prefix trie of hidden states, {token id: (state after that
    token, child trie)}, that calls on sequences of one input can share:
    the GRU runs only for the tokens past the longest prefix already in
    it. The states are those of a batch-1 _forward, bit for bit. Without
    states the trie is fresh, so nothing is reused.
    """
    params = m.params
    emb = params["embedding"]
    tokens = tuple(tokens)
    if not tokens:
        raise GuiderError("empty token sequence")
    node = {} if states is None else states
    h = np.zeros((1, params["U_z"].shape[0]), dtype=emb.dtype)
    for tid in tokens:
        entry = node.get(tid)
        if entry is None:
            if not 0 <= tid < emb.shape[0]:
                raise GuiderError(f"unknown token id {tid}")
            entry = node[tid] = (_gru_step(params, emb[[tid]], h)[0], {})
        h, node = entry
    return h[0]


def predict_rule_distribution(
    g: Grammar, tokens, nt: Nonterminal, m: GuiderModel, states: dict = None
):
    """Probability vector over all rule ids; inapplicable rules get
    exactly 0, applicable ones a softmax of their logits. states is
    passed on to encode."""
    applicable = [r.id for r in g.rules_for(nt)]
    h = encode(g, tokens, m, states=states)
    logits = h @ m.params["W_out"] + m.params["b_out"]
    sub = logits[applicable].astype(np.float64)
    sub -= sub.max()
    e = np.exp(sub)
    probs = np.zeros(len(g.rules), dtype=np.float64)
    probs[applicable] = e / e.sum()
    return probs


def loss_and_gradients(g: Grammar, batch, m: GuiderModel):
    """Mean masked cross-entropy over a batch of TrainingPair, with exact
    gradients for every parameter."""
    if not batch:
        raise GuiderError("empty batch")
    masks = _rule_masks(g)
    for p in batch:
        if not masks[p.nt.id, p.rule_id]:
            raise GuiderError(
                f"label {p.rule_id} not applicable for {p.nt.name}"
            )
    params = m.params
    seqs = [p.tokens for p in batch]
    h, cache = _forward(params, seqs, want_cache=True)
    logits = h @ params["W_out"] + params["b_out"]

    B, R = logits.shape
    batch_mask = masks[[p.nt.id for p in batch]]
    labels = np.array([p.rule_id for p in batch])
    neg = np.full_like(logits, -np.inf)
    ml = np.where(batch_mask, logits, neg)
    mx = ml.max(axis=1, keepdims=True)
    e = np.exp(ml - mx)
    Z = e.sum(axis=1, keepdims=True)
    probs = e / Z
    logp = (ml - mx) - np.log(Z)
    loss = float(-logp[np.arange(B), labels].mean())

    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    dlogits = np.where(batch_mask, dlogits, 0.0).astype(logits.dtype)

    dh = dlogits @ params["W_out"].T
    grads = _backward_encoder(params, cache, dh)
    grads["W_out"] = h.T @ dlogits
    grads["b_out"] = dlogits.sum(axis=0)
    return loss, grads


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.9
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """In-place bias-corrected Adam update; one shared step counter."""
    for name, gval in grads.items():
        if not np.all(np.isfinite(gval)):
            raise GuiderError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        gval = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = b1 * state.m[name] + (1 - b1) * gval
        state.v[name] = b2 * state.v[name] + (1 - b2) * gval * gval
        m_hat = state.m[name] / (1 - b1**t)
        v_hat = state.v[name] / (1 - b2**t)
        p -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype)


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainConfig:
    d_emb: int = 64
    d_h: int = 256
    batch_size: int = 64
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.9  # stated value; pass 0.999 for the conventional one
    eps: float = 1e-8
    iters_per_stage: int = 2000
    programs_per_stage: int = 1500
    heldout_programs: int = 200
    eval_every: int = 100
    early_stop_acc: float = 0.995
    seed: int = 0
    dtype: type = np.float32


def _step_accuracy(g: Grammar, m: GuiderModel, pairs, chunk: int = 512) -> float:
    masks = _rule_masks(g)
    correct = 0
    for lo in range(0, len(pairs), chunk):
        part = pairs[lo : lo + chunk]
        h, _ = _forward(m.params, [p.tokens for p in part], want_cache=False)
        logits = h @ m.params["W_out"] + m.params["b_out"]
        bm = masks[[p.nt.id for p in part]]
        logits = np.where(bm, logits, -np.inf)
        pred = logits.argmax(axis=1)
        correct += int(
            (pred == np.array([p.rule_id for p in part])).sum()
        )
    return correct / len(pairs)


def _balanced_batch(rng, by_nt: dict, size: int):
    """Uniform over nonterminal classes, then uniform within the class;
    counters chain-rule label dominance in the raw pair pool."""
    nts = sorted(by_nt)
    picks = rng.integers(0, len(nts), size=size)
    batch = []
    for k in picks:
        pool = by_nt[nts[k]]
        batch.append(pool[int(rng.integers(0, len(pool)))])
    return batch


def train(g: Grammar, schedule, config: TrainConfig = None):
    """Curriculum training loop.

    For each bucket: sample programs, extract per-node pairs, run
    minibatch Adam with class-balanced batches, early-stopping the stage
    once held-out step accuracy reaches config.early_stop_acc. Returns
    (model, log rows); each row is (stage, iteration, loss, heldout_acc).
    """
    from .sampler import extract_training_pairs, sample_corpus

    cfg = config or TrainConfig()
    model = init_model(
        g, d_emb=cfg.d_emb, d_h=cfg.d_h, seed=cfg.seed, dtype=cfg.dtype
    )
    state = AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    log = []

    for stage, bucket in enumerate(schedule):
        rng = np.random.default_rng(derive(cfg.seed, stage))
        corpus = sample_corpus(g, bucket, cfg.programs_per_stage, rng)
        heldout_corpus = sample_corpus(g, bucket, cfg.heldout_programs, rng)
        pairs = [p for _, t in corpus for p in extract_training_pairs(g, t)]
        heldout = [
            p for _, t in heldout_corpus for p in extract_training_pairs(g, t)
        ]
        by_nt = {}
        for p in pairs:
            by_nt.setdefault(p.nt.id, []).append(p)

        for it in range(1, cfg.iters_per_stage + 1):
            batch = _balanced_batch(rng, by_nt, cfg.batch_size)
            loss, grads = loss_and_gradients(g, batch, model)
            if not np.isfinite(loss):
                raise TrainingDiverged(stage)
            adam_step(state, model.params, grads)
            if it % cfg.eval_every == 0 or it == cfg.iters_per_stage:
                acc = _step_accuracy(g, model, heldout)
                log.append((stage, it, loss, acc))
                if acc >= cfg.early_stop_acc:
                    break
    return model, log


def derive(seed: int, stage: int) -> int:
    from .sampler import derive_seed

    return derive_seed("train-stage", seed, stage)


def write_training_log(log, path) -> None:
    with open(path, "w") as fh:
        fh.write("stage,iteration,loss,heldout_step_acc\n")
        for stage, it, loss, acc in log:
            fh.write(f"{stage},{it},{loss:.6f},{acc:.6f}\n")


# ---------------------------------------------------------------------------
# Persistence


def save_model(m: GuiderModel, path) -> None:
    """Binary layout: magic, rule/vocab fingerprints, then one record per
    tensor (name, rank, dims, float32 little-endian data), name-sorted."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", m.rule_fingerprint, m.vocab_fingerprint))
        for name in sorted(m.params):
            arr = np.ascontiguousarray(m.params[name], dtype="<f4")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_model(path, g: Grammar) -> GuiderModel:
    def take(fh, n, what):
        data = fh.read(n)
        if len(data) != n:
            raise GuiderError(f"truncated model file (reading {what})")
        return data

    params = {}
    with open(path, "rb") as fh:
        if take(fh, len(_MAGIC), "magic") != _MAGIC:
            raise GuiderError("bad model file magic")
        rule_fp, vocab_fp = struct.unpack("<QQ", take(fh, 16, "fingerprints"))
        if rule_fp != g.rule_fingerprint() or vocab_fp != g.vocab_fingerprint():
            raise GuiderError("model/grammar mismatch")
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise GuiderError("truncated model file (reading name length)")
            (nlen,) = struct.unpack("<I", head)
            name = take(fh, nlen, "name").decode()
            (rank,) = struct.unpack("<I", take(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", take(fh, 4 * rank, "dims"))
            count = int(np.prod(dims)) if rank else 1
            data = take(fh, 4 * count, f"tensor {name}")
            params[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()

    missing = set(_PARAM_NAMES) - set(params)
    if missing:
        raise GuiderError(f"model file missing tensors: {sorted(missing)}")
    return GuiderModel(
        params,
        d_emb=params["embedding"].shape[1],
        d_h=params["U_z"].shape[0],
        vocab_fingerprint=vocab_fp,
        rule_fingerprint=rule_fp,
    )
