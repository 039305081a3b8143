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
    "encode",
    "predict_rule_distribution",
    "loss_and_gradients",
    "adam_step",
    "train",
    "save_model",
    "load_model",
]

_MAGIC = b"NGSI1"

# Axes of every tensor in the model file: V and R come from the grammar,
# d_emb and d_h from the model itself.
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

# The encoder's parameter blocks, each the file's gate tensors side by
# side in this column order: one matmul per block, the two a step makes
# on its state (U_zr, U_h) and one for its input (W).
_BLOCKS = {
    "W": ("W_z", "W_r", "W_h"),
    "U_zr": ("U_z", "U_r"),
    "U_h": ("U_h",),
    "b": ("b_z", "b_r", "b_h"),
}


def _params_from_file(tensors: dict) -> dict:
    """The model's parameters from file tensors: each block a new
    contiguous array of its gates; the other tensors as they are."""
    params = dict(tensors)
    for block, gates in _BLOCKS.items():
        params[block] = np.concatenate([params.pop(gate) for gate in gates], axis=-1)
    return params


def _file_tensors(params: dict) -> dict:
    """The file's tensors by name, each gate a view of its block, so a
    write to one reaches the model."""
    tensors = dict(params)
    for block, gates in _BLOCKS.items():
        tensors.update(zip(gates, np.split(tensors.pop(block), len(gates), axis=-1)))
    return tensors


class GuiderError(Exception):
    pass


class TrainingDiverged(GuiderError):
    def __init__(self, stage: int):
        super().__init__(f"loss became non-finite in stage {stage}")
        self.stage = stage


@dataclass
class GuiderModel:
    """The guider's parameters: embedding [V, d_emb]; the GRU's gates
    packed as in _BLOCKS, W [d_emb, 3*d_h] and b [3*d_h] with columns
    (z | r | h), U_zr [d_h, 2*d_h] with columns (z | r) and U_h [d_h, d_h];
    and the output layer W_out [d_h, R], b_out [R]. The model file stores
    the gates as separate tensors."""

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
    """Uniform [-1/sqrt(d_h), 1/sqrt(d_h)] matrices, zero biases, drawn in
    _SHAPES order."""
    check_int("d_emb", d_emb, 1)
    check_int("d_h", d_h, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d_h)
    dims = {"V": len(g.vocabulary), "R": len(g.rules), "d_emb": d_emb, "d_h": d_h}
    tensors = {}
    for name, axes in _SHAPES.items():
        shape = tuple(dims[a] for a in axes)
        if name.startswith("b_"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return GuiderModel(
        _params_from_file(tensors), d_emb, d_h, g.vocab_fingerprint(), g.rule_fingerprint()
    )


def _sigmoid_inplace(x):
    """x <- 1 / (1 + exp(-x)), the same arithmetic as written out."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _gru_step(U_zr, U_h, b, xw, h):
    """One GRU update: z gates the candidate, (1-z) carries the old state.

    xw is the input's product x @ W, columns (z | r | h). With d = d_h:
    (z | r) = sig(xw[:2d] + h @ U_zr + b[:2d]);
    cand = tanh(xw[2d:] + (r*h) @ U_h + b[2d:]); new = (1-z)*h + z*cand.
    Each gate's sum is associated as (x @ W_g + h @ U_g) + b_g, the order
    of one matmul per gate, so the packed layout changes no bit of the
    result. Works on single vectors or batches (leading axis). Returns
    (new state, z, r, cand), the gate values being what backprop needs.
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
    p = m.params
    emb, W, U_zr, U_h, b = p["embedding"], p["W"], p["U_zr"], p["U_h"], p["b"]
    if any(len(s) == 0 for s in seqs):
        raise GuiderError("empty token sequence")
    lengths = np.array([len(s) for s in seqs])
    order = np.argsort(-lengths, kind="stable")
    ordered = [seqs[i] for i in order]
    B, T = len(seqs), int(lengths[order[0]])
    # active[t] = number of sequences longer than t, the rows of step t
    active = B - np.cumsum(np.bincount(lengths, minlength=T + 1))[:T]
    final = np.empty((B, m.d_h), dtype=emb.dtype)
    h = np.zeros_like(final)
    steps = []
    for t, n in enumerate(active.tolist()):
        ids = [s[t] for s in ordered[:n]]
        h_prev = h[:n]
        h, z, r, cand = _gru_step(U_zr, U_h, b, emb[ids] @ W, h_prev)
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
    over all steps. The returned gradients are named and laid out as
    GuiderModel.params.
    """
    p = m.params
    emb, W, U_zr, U_h = p["embedding"], p["W"], p["U_zr"], p["U_h"]
    order, active, steps = cache
    d = m.d_h
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
        drh = (U_h @ dcand_pre.T).T
        np.multiply(dnew * (cand - h_prev) * z, 1.0 - z, out=dz_pre)
        np.multiply(drh * h_prev * r, 1.0 - r, out=dr_pre)
        dh_prev = dnew * (1.0 - z)
        dh_prev += drh * r
        dh_prev += (U_zr @ pre[:, : 2 * d].T).T
        grad[: hi - lo] = dh_prev

    ids = [tid for step in steps for tid in step[0]]
    X = emb[ids]
    H = np.concatenate([h_prev for _, h_prev, _, _, _ in steps])
    RH = np.concatenate([r * h_prev for _, h_prev, _, r, _ in steps])
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, ids, D @ W.T)
    return {
        "embedding": d_emb,
        "W": X.T @ D,
        "U_zr": H.T @ D[:, : 2 * d],
        "U_h": RH.T @ D[:, 2 * d :],
        "b": D.sum(axis=0),
    }


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
    p = m.params
    emb, W, U_zr, U_h, b = p["embedding"], p["W"], p["U_zr"], p["U_h"], p["b"]

    def step(h, tid):
        xw = proj.get(tid)
        if xw is None:
            xw = proj[tid] = emb[tid] @ W
        return _gru_step(U_zr, U_h, b, xw, h)[0]

    # the longest kept prefix, then the kept ones past it
    n = depth = min(len(tokens), KEPT_TOKENS)
    while depth and (h := kept.get(tokens[:depth])) is None:
        depth -= 1
    if not depth:
        h = np.zeros(m.d_h, dtype=emb.dtype)
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
    exactly 0, applicable ones a softmax of their logits, so a
    nonterminal without rules gets all zeros. states is passed on to
    encode."""
    applicable = [r.id for r in g.rules_for(nt)]
    h = encode(g, tokens, m, states=states)
    probs = np.zeros(len(g.rules), dtype=np.float64)
    if applicable:
        logits = h @ m.params["W_out"] + m.params["b_out"]
        sub = logits[applicable].astype(np.float64)
        sub -= sub.max()
        e = np.exp(sub)
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
    """Write m with its gates as separate tensors (_file_tensors)."""
    _write_model(path, m, _file_tensors(m.params))


def _write_model(path, m: GuiderModel, tensors: dict) -> None:
    """Binary layout: magic, m's rule/vocab fingerprints, then one record
    per tensor (name, rank, dims, float32 little-endian data),
    name-sorted."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", m.rule_fingerprint, m.vocab_fingerprint))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _check_shapes(tensors: dict, V: int, R: int) -> None:
    """Raise GuiderError naming the first file tensor whose shape does not
    match _SHAPES, with d_emb and d_h read off embedding and U_h."""
    emb, u_h = tensors["embedding"], tensors["U_h"]
    dims = {
        "V": V,
        "R": R,
        "d_emb": emb.shape[1] if emb.ndim == 2 else None,
        "d_h": u_h.shape[0] if u_h.ndim == 2 else None,
    }
    for name, axes in _SHAPES.items():
        want = tuple(dims[a] for a in axes)
        if tensors[name].shape != want:
            raise GuiderError(
                f"tensor {name} has shape {tensors[name].shape}, expected "
                f"[{', '.join(axes)}] = {want}"
            )


def load_model(path, g: Grammar) -> GuiderModel:
    """Read a save_model file. Any malformed file raises GuiderError: no
    read asks for more bytes than the file has left, and every tensor must
    be named in _SHAPES, appear once, and have rank at most 2, finite
    values and its _SHAPES shape."""
    tensors = {}
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
            if name in tensors:
                raise GuiderError(f"duplicate tensor {name}")
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
            if not np.isfinite(tensors[name]).all():
                raise GuiderError(f"tensor {name} has non-finite values")

    missing = set(_SHAPES) - set(tensors)
    if missing:
        raise GuiderError(f"model file missing tensors: {sorted(missing)}")
    _check_shapes(tensors, V=len(g.vocabulary), R=len(g.rules))
    params = _params_from_file(tensors)
    return GuiderModel(
        params,
        d_emb=params["embedding"].shape[1],
        d_h=params["U_h"].shape[0],
        vocab_fingerprint=vocab_fp,
        rule_fingerprint=rule_fp,
    )
