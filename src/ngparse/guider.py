"""Learned rule selector: token embedding, unidirectional GRU encoder,
and a linear classifier masked to the rules applicable at a nonterminal.

Forward, backward, and the Adam update are written out by hand (numpy
only); the gradients are checked against finite differences in the test
suite, so no autograd framework is involved on either side.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import sampler
from .grammar import Grammar, Nonterminal, check_int, check_number

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

# Axes of every tensor: V and R come from the grammar, d_emb and d_h from
# the model itself.
_SHAPES = {
    "embedding": ("V", "d_emb"),
    "W_z": ("d_emb", "d_h"),
    "U_z": ("d_h", "d_h"),
    "b_z": ("d_h",),
    "W_r": ("d_emb", "d_h"),
    "U_r": ("d_h", "d_h"),
    "b_r": ("d_h",),
    "W_h": ("d_emb", "d_h"),
    "U_h": ("d_h", "d_h"),
    "b_h": ("d_h",),
    "W_out": ("d_h", "R"),
    "b_out": ("R",),
}


class GuiderError(Exception):
    pass


class TrainingDiverged(GuiderError):
    def __init__(self, stage: int):
        super().__init__(f"loss became non-finite in stage {stage}")
        self.stage = stage


@dataclass
class GuiderModel:
    """The guider's tensors by name (the names save_model writes), plus the
    encoder's packed gate layout.

    On construction the nine gate tensors are packed into four contiguous
    blocks: W [d_emb, 3*d_h] and b [3*d_h] with columns (z | r | h), and
    the recurrent weights as U_zr [d_h, 2*d_h] (columns z | r) and U_h
    [d_h, d_h], the two products a step makes. The model keeps its own copy
    of the params dict whose gate entries are views of those blocks
    (params["U_h"] is the U_h block itself). Update them in place
    (p -= ..., p[...] = ...), as adam_step does: the encoder reads the
    blocks, so a gate entry rebound to a new array would no longer reach it.
    """

    params: dict
    d_emb: int
    d_h: int
    vocab_fingerprint: int
    rule_fingerprint: int
    W: np.ndarray = field(init=False, repr=False, compare=False)
    U_zr: np.ndarray = field(init=False, repr=False, compare=False)
    U_h: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = dict(self.params)
        self.W, self.U_zr, self.U_h, self.b = _pack(self.params)
        self.params.update(_gate_views(self.W, self.U_zr, self.U_h, self.b))

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
    """Uniform [-1/sqrt(d_h), 1/sqrt(d_h)] matrices, zero biases, drawn in
    _SHAPES order."""
    check_int("d_emb", d_emb, 1)
    check_int("d_h", d_h, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d_h)
    dims = {"V": len(g.vocabulary), "R": len(g.rules), "d_emb": d_emb, "d_h": d_h}
    params = {}
    for name, axes in _SHAPES.items():
        shape = tuple(dims[a] for a in axes)
        if name.startswith("b_"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return GuiderModel(
        params, d_emb, d_h, g.vocab_fingerprint(), g.rule_fingerprint()
    )


def _sigmoid_inplace(x):
    """x <- 1 / (1 + exp(-x)), the same arithmetic as written out."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _pack(params: dict):
    """(W, U_zr, U_h, b): new contiguous blocks of the gate tensors, side by
    side in the order of the gates named."""
    return tuple(
        np.concatenate([params[f"{kind}_{gate}"] for gate in gates], axis=-1)
        for kind, gates in (("W", "zrh"), ("U", "zr"), ("U", "h"), ("b", "zrh"))
    )


def _gate_views(W, U_zr, U_h, b):
    """The gate entries, by their params names, as views of the blocks."""
    d = U_h.shape[-1]
    views = {"U_z": U_zr[:, :d], "U_r": U_zr[:, d:], "U_h": U_h}
    for k, gate in enumerate("zrh"):
        cols = slice(k * d, (k + 1) * d)
        views[f"W_{gate}"] = W[:, cols]
        views[f"b_{gate}"] = b[cols]
    return views


def gru_cell(params: dict, x, h):
    """One update: z gates the candidate, (1-z) carries the old state.

    z = sig(W_z x + U_z h + b_z); r = sig(W_r x + U_r h + b_r);
    cand = tanh(W_h x + U_h (r*h) + b_h); out = (1-z)*h + z*cand.
    Works on single vectors or batches (leading axis).
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h))):
        raise GuiderError("non-finite input to recurrent cell")
    W, U_zr, U_h, b = _pack(params)
    return _gru_step(U_zr, U_h, b, x @ W, h)[0]


def _gru_step(U_zr, U_h, b, xw, h):
    """The cell's equations on the packed layout, without input checks.

    xw is the input's product x @ W with all three gates, columns
    (z | r | h); z and r share one matmul with U_zr, the candidate makes
    one with U_h. The sums are associated as (x @ W_g + h @ U_g) + b_g,
    the order of one matmul per gate, so the packed layout changes no bit
    of the result. Returns (new state, z, r, cand), the gate values being
    what backprop needs.
    """
    d = h.shape[-1]
    zr = h @ U_zr
    zr += xw[..., : 2 * d]
    zr += b[: 2 * d]
    _sigmoid_inplace(zr)
    z, r = zr[..., :d], zr[..., d:]
    cand = (r * h) @ U_h
    cand += xw[..., 2 * d :]
    cand += b[2 * d :]
    np.tanh(cand, out=cand)
    # (1 - z) * h + z * cand, each operation as written, in place
    new = np.subtract(1.0, z)
    new *= h
    new += z * cand
    return new, z, r, cand


# ---------------------------------------------------------------------------
# Batched forward/backward


def _forward(m: GuiderModel, seqs, want_cache: bool):
    """Run the encoder over a batch of token-id sequences.

    Returns (final hidden states [B, d_h] in the order of seqs, cache for
    backprop or None). The batch runs sorted by length, longest first
    (stable), so the rows still reading at step t are the first active[t]
    and no step computes a row past the end of its sequence: the rows of
    all steps add up to the number of tokens. A batch of one runs exactly
    the operations encode runs. The token ids must be checked by the
    caller (see _masked_logits).
    """
    emb = m.params["embedding"]
    if any(len(s) == 0 for s in seqs):
        raise GuiderError("empty token sequence")
    lengths = np.array([len(s) for s in seqs])
    order = np.argsort(-lengths, kind="stable")
    ordered = [seqs[i] for i in order]
    B, T = len(seqs), int(lengths[order[0]])
    # active[t] = number of sequences longer than t, the rows of step t
    active = B - np.cumsum(np.bincount(lengths, minlength=T + 1))[:T]
    final = np.empty((B, m.U_h.shape[0]), dtype=emb.dtype)
    h = np.zeros_like(final)
    steps = []
    for t, n in enumerate(active.tolist()):
        ids = [s[t] for s in ordered[:n]]
        h_prev = h[:n]
        h, z, r, cand = _gru_step(m.U_zr, m.U_h, m.b, emb[ids] @ m.W, h_prev)
        # sequences of length t + 1 end here: rows [active[t + 1], n)
        done = int(active[t + 1]) if t + 1 < T else 0
        final[order[done:n]] = h[done:n]
        if want_cache:
            steps.append((ids, h_prev, z, r, cand))
    cache = (order, active, steps) if want_cache else None
    return final, cache


def _backward_encoder(m: GuiderModel, cache, dh):
    """Backprop dh (gradient at the final hidden states, rows in the
    caller's order) through time, over the same shrinking row sets as
    _forward.

    Each step writes the pre-activation gradients of its rows into one
    block of D [sum of lengths, 3*d_h], columns (z | r | h) as in W and
    b; the weight, bias and embedding gradients are then one product each
    over all steps. The gate entries of the returned dict are views of the
    gradient blocks, named and laid out as in GuiderModel.params.
    """
    order, active, steps = cache
    d = m.U_h.shape[0]
    offsets = np.concatenate(([0], np.cumsum(active))).tolist()
    D = np.empty((offsets[-1], 3 * d), dtype=dh.dtype)
    # gradient at the state each row holds after the step in progress; a
    # row that ends at step t starts with its final-state gradient
    grad = dh[order]
    for t in range(len(steps) - 1, -1, -1):
        _, h_prev, z, r, cand = steps[t]
        lo, hi = offsets[t], offsets[t + 1]
        dnew = grad[: hi - lo]
        pre = D[lo:hi]
        dz_pre, dr_pre, dcand_pre = pre[:, :d], pre[:, d : 2 * d], pre[:, 2 * d :]

        np.multiply(dnew * z, 1.0 - cand * cand, out=dcand_pre)
        # (U @ x.T).T has the bits of x @ U.T and takes OpenBLAS's faster
        # path for the few rows of a step
        drh = (m.U_h @ dcand_pre.T).T
        np.multiply(dnew * (cand - h_prev) * z, 1.0 - z, out=dz_pre)
        np.multiply(drh * h_prev * r, 1.0 - r, out=dr_pre)
        dh_prev = dnew * (1.0 - z)
        dh_prev += drh * r
        dh_prev += (m.U_zr @ pre[:, : 2 * d].T).T
        grad[: hi - lo] = dh_prev

    ids = [tid for step in steps for tid in step[0]]
    X = m.params["embedding"][ids]
    H = np.concatenate([h_prev for _, h_prev, _, _, _ in steps])
    RH = np.concatenate([r * h_prev for _, h_prev, _, r, _ in steps])
    d_emb = np.zeros_like(m.params["embedding"])
    np.add.at(d_emb, ids, D @ m.W.T)
    dU_zr, dU_h = H.T @ D[:, : 2 * d], RH.T @ D[:, 2 * d :]
    return {"embedding": d_emb, **_gate_views(X.T @ D, dU_zr, dU_h, D.sum(axis=0))}


def _unknown_token(tok, pos) -> GuiderError:
    return GuiderError(f"unknown token id {tok}")


# Prefixes of at most this many tokens, and spans this short, are what a
# caller may keep across inputs (see encode and engine.model_selector).
KEPT_TOKENS = 4


def encode(g: Grammar, tokens, m: GuiderModel, states: dict = None) -> np.ndarray:
    """Final hidden state of the encoder for one token sequence.

    states is what calls share: under "proj" the input projection table
    {token id: embedding[id] @ W}; under "prefixes" the table {prefix:
    state after it} of the prefixes of 1 to KEPT_TOKENS tokens; and under
    each KEPT_TOKENS-token prefix p a trie {token id: (state after that
    token, child trie)} of the longer prefixes that start with p. Each
    entry is made on first use, and the GRU runs only for the tokens past
    the longest prefix already there. The first two tables depend only on
    the model and the token ids, so a caller may keep them across inputs
    (model_selector does, under a cap); the tries belong to one input.
    The states are those of a batch-1 _forward, bit for bit, so a table
    cleared and refilled gives the same states. Without states all are
    fresh, so nothing is reused. Every token id is checked before any
    table is touched.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise GuiderError("empty token sequence")
    g.check_tokens(tokens, _unknown_token)
    states = {} if states is None else states
    proj = states.setdefault("proj", {})
    kept = states.setdefault("prefixes", {})

    def step(h, tid):
        xw = proj.get(tid)
        if xw is None:
            xw = proj[tid] = m.params["embedding"][tid] @ m.W
        return _gru_step(m.U_zr, m.U_h, m.b, xw, h)[0]

    # the longest kept prefix, then the kept ones past it
    n = depth = min(len(tokens), KEPT_TOKENS)
    while depth and (h := kept.get(tokens[:depth])) is None:
        depth -= 1
    if not depth:
        h = np.zeros(m.U_h.shape[0], dtype=m.params["embedding"].dtype)
    for i in range(depth, n):
        h = kept[tokens[: i + 1]] = step(h, tokens[i])
    if len(tokens) > n:
        node = states.setdefault(tokens[:n], {})
        for tid in tokens[n:]:
            entry = node.get(tid)
            if entry is None:
                entry = node[tid] = (step(h, tid), {})
            h, node = entry
    return h


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


def _masked_logits(g: Grammar, m: GuiderModel, pairs, want_cache: bool):
    """(logits, final states, cache) for a batch of TrainingPair: the
    output layer's logits over all rules, -inf where a rule's lhs is not
    the pair's nonterminal, and _forward's final states and cache."""
    for p in pairs:
        g.check_tokens(p.tokens, _unknown_token)
    h, cache = _forward(m, [p.tokens for p in pairs], want_cache)
    logits = h @ m.params["W_out"] + m.params["b_out"]
    lhs = np.array([r.lhs.id for r in g.rules])
    applicable = lhs == np.array([p.nt.id for p in pairs])[:, None]
    return np.where(applicable, logits, -np.inf), h, cache


def loss_and_gradients(g: Grammar, batch, m: GuiderModel):
    """Mean masked cross-entropy over a batch of TrainingPair, with exact
    gradients for every parameter."""
    if not batch:
        raise GuiderError("empty batch")
    for p in batch:
        if not (0 <= p.nt.id < len(g.nonterminals) and 0 <= p.rule_id < len(g.rules)
                and g.rules[p.rule_id].lhs.id == p.nt.id):
            raise GuiderError(
                f"label {p.rule_id} not applicable for {p.nt.name}"
            )
    ml, h, cache = _masked_logits(g, m, batch, want_cache=True)

    B = len(batch)
    labels = np.array([p.rule_id for p in batch])
    mx = ml.max(axis=1, keepdims=True)
    e = np.exp(ml - mx)
    Z = e.sum(axis=1, keepdims=True)
    logp = (ml - mx) - np.log(Z)
    loss = float(-logp[np.arange(B), labels].mean())

    # the softmax, whose masked entries exp(-inf) already made exactly 0
    dlogits = e / Z
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    dh = dlogits @ m.params["W_out"].T
    grads = _backward_encoder(m, cache, dh)
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
    """In-place bias-corrected Adam update; one shared step counter.

    The moments and parameters are updated in place with the operations,
    and in the order, of p -= lr * m_hat / (sqrt(v_hat) + eps), so the
    result is bit for bit that formula's.
    """
    for name, gval in grads.items():
        if not np.all(np.isfinite(gval)):
            raise GuiderError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1 - b1**t, 1 - b2**t
    for name, p in params.items():
        gval = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * gval
        v *= b2
        v += (1 - b2) * gval * gval
        num = m / c1
        num *= state.lr
        den = v / c2
        np.sqrt(den, out=den)
        den += state.eps
        num /= den
        p -= num


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
    iters_per_stage: int = 2000
    programs_per_stage: int = 1500
    heldout_programs: int = 200
    eval_every: int = 100
    early_stop_acc: float = 0.995
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("d_emb", 1), ("d_h", 1), ("batch_size", 1),
                              ("iters_per_stage", 0), ("programs_per_stage", 1),
                              ("heldout_programs", 1), ("eval_every", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        # Adam needs a finite step size above 0 and betas in [0, 1).
        check_number("lr", self.lr, above=0, below=math.inf)
        for name in ("beta1", "beta2"):
            check_number(name, getattr(self, name), minimum=0, below=1)
        # Any number: one above 1 turns early stopping off.
        check_number("early_stop_acc", self.early_stop_acc)


def _step_accuracy(g: Grammar, m: GuiderModel, pairs) -> float:
    correct = 0
    for lo in range(0, len(pairs), 512):
        part = pairs[lo : lo + 512]
        pred = _masked_logits(g, m, part, want_cache=False)[0].argmax(axis=1)
        correct += int((pred == np.array([p.rule_id for p in part])).sum())
    return correct / len(pairs)


def _balanced_batch(rng, by_nt: dict, size: int):
    """Uniform over nonterminal classes, then uniform within the class;
    counters chain-rule label dominance in the raw pair pool."""
    nts = sorted(by_nt)
    pools = [by_nt[nts[k]] for k in rng.integers(0, len(nts), size=size)]
    # one call, the same values and generator state as a draw per pool
    within = rng.integers(0, [len(p) for p in pools])
    return [p[i] for p, i in zip(pools, within.tolist())]


def train(g: Grammar, schedule, config: TrainConfig = None):
    """Curriculum training loop.

    For each bucket: sample programs, extract per-node pairs, run
    minibatch Adam with class-balanced batches, early-stopping the stage
    once held-out step accuracy reaches config.early_stop_acc. Returns
    (model, log rows); each row is (stage, iteration, loss, heldout_acc).
    """
    cfg = config or TrainConfig()
    model = init_model(g, d_emb=cfg.d_emb, d_h=cfg.d_h, seed=cfg.seed)
    state = AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    log = []

    for stage, bucket in enumerate(schedule):
        rng = np.random.default_rng(derive(cfg.seed, stage))
        corpus = sampler.sample_corpus(g, bucket, cfg.programs_per_stage, rng)
        heldout_corpus = sampler.sample_corpus(g, bucket, cfg.heldout_programs, rng)
        pairs = [p for _, t in corpus for p in sampler.extract_training_pairs(g, t)]
        heldout = [
            p for _, t in heldout_corpus for p in sampler.extract_training_pairs(g, t)
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
    return sampler.derive_seed("train-stage", seed, stage)


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


def _check_shapes(params: dict, V: int, R: int) -> None:
    """Raise GuiderError naming the first tensor whose shape does not match
    _SHAPES, with d_emb and d_h read off embedding and U_z."""
    emb, u_z = params["embedding"], params["U_z"]
    dims = {
        "V": V,
        "R": R,
        "d_emb": emb.shape[1] if emb.ndim == 2 else None,
        "d_h": u_z.shape[0] if u_z.ndim == 2 else None,
    }
    for name, axes in _SHAPES.items():
        want = tuple(dims[a] for a in axes)
        if params[name].shape != want:
            raise GuiderError(
                f"tensor {name} has shape {params[name].shape}, expected "
                f"[{', '.join(axes)}] = {want}"
            )


def load_model(path, g: Grammar) -> GuiderModel:
    """Read a save_model file. Any malformed file raises GuiderError: no
    read asks for more bytes than the file has left, and every tensor must
    be named in _SHAPES, appear once, and have rank at most 2, finite
    values and its _SHAPES shape."""
    params = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n, what):
            data = fh.read(n) if n <= size - fh.tell() else b""
            if len(data) != n:
                raise GuiderError(f"truncated model file (reading {what})")
            return data

        if take(len(_MAGIC), "magic") != _MAGIC:
            raise GuiderError("bad model file magic")
        rule_fp, vocab_fp = struct.unpack("<QQ", take(16, "fingerprints"))
        if rule_fp != g.rule_fingerprint() or vocab_fp != g.vocab_fingerprint():
            raise GuiderError("model/grammar mismatch")
        while fh.tell() < size:
            (nlen,) = struct.unpack("<I", take(4, "name length"))
            try:
                name = take(nlen, "name").decode()
            except UnicodeDecodeError:
                raise GuiderError("tensor name is not UTF-8") from None
            (rank,) = struct.unpack("<I", take(4, "rank"))
            if rank > 2:
                raise GuiderError(f"tensor {name} has rank {rank}, expected at most 2")
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
            data = take(4 * math.prod(dims), f"tensor {name}")
            if name not in _SHAPES:
                raise GuiderError(f"unknown tensor {name!r}")
            if name in params:
                raise GuiderError(f"duplicate tensor {name}")
            params[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
            if not np.isfinite(params[name]).all():
                raise GuiderError(f"tensor {name} has non-finite values")

    missing = set(_SHAPES) - set(params)
    if missing:
        raise GuiderError(f"model file missing tensors: {sorted(missing)}")
    _check_shapes(params, V=len(g.vocabulary), R=len(g.rules))
    return GuiderModel(
        params,
        d_emb=params["embedding"].shape[1],
        d_h=params["U_z"].shape[0],
        vocab_fingerprint=vocab_fp,
        rule_fingerprint=rule_fp,
    )
