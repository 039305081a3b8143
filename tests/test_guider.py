import math
import re

import numpy as np
import pytest

from conftest import FIXTURE_MODEL, save_with_tensors
from ngparse import guider
from ngparse.guider import (
    AdamState,
    GuiderError,
    GuiderModel,
    TrainConfig,
    _forward,
    adam_step,
    encode,
    gru_cell,
    init_model,
    load_model,
    loss_and_gradients,
    predict_rule_distribution,
    save_model,
    train,
)
from ngparse.sampler import SampleBucket, TrainingPair, sample_corpus, extract_training_pairs


def _zero_params(m):
    return {k: np.zeros_like(v) for k, v in m.params.items()}


# ---------------------------------------------------------------------------
# recurrent cell


def test_cell_zero_weights_halves_state(g, tiny_model):
    params = _zero_params(tiny_model)
    h = np.random.default_rng(0).normal(size=16)
    out = gru_cell(params, np.zeros(8), h)
    assert np.allclose(out, 0.5 * h)


def test_cell_zero_state_zero_weights(g, tiny_model):
    params = _zero_params(tiny_model)
    assert np.allclose(gru_cell(params, np.zeros(8), np.zeros(16)), 0.0)


def test_cell_matches_scalar_oracle():
    # d_emb = d_h = 2; recompute the gate equations element by element
    rng = np.random.default_rng(5)
    p = {
        name: rng.normal(scale=0.3, size=shape)
        for name, shape in [
            ("W_z", (2, 2)), ("U_z", (2, 2)), ("b_z", (2,)),
            ("W_r", (2, 2)), ("U_r", (2, 2)), ("b_r", (2,)),
            ("W_h", (2, 2)), ("U_h", (2, 2)), ("b_h", (2,)),
        ]
    }
    x, h = rng.normal(size=2), rng.normal(size=2)

    def sig(v):
        return 1 / (1 + math.exp(-v))

    expect = []
    for i in range(2):
        z = sig(sum(x[j] * p["W_z"][j, i] for j in range(2))
                + sum(h[j] * p["U_z"][j, i] for j in range(2)) + p["b_z"][i])
        r_row = [
            sig(sum(x[j] * p["W_r"][j, k] for j in range(2))
                + sum(h[j] * p["U_r"][j, k] for j in range(2)) + p["b_r"][k])
            for k in range(2)
        ]
        cand = math.tanh(
            sum(x[j] * p["W_h"][j, i] for j in range(2))
            + sum(r_row[j] * h[j] * p["U_h"][j, i] for j in range(2))
            + p["b_h"][i]
        )
        expect.append((1 - z) * h[i] + z * cand)
    assert np.allclose(gru_cell(p, x, h), expect)


def test_cell_rejects_nonfinite(tiny_model):
    with pytest.raises(GuiderError):
        gru_cell(tiny_model.params, np.array([np.nan] * 8), np.zeros(16))


# ---------------------------------------------------------------------------
# encoder


def test_encode_zero_model_single_token(g, zero_model):
    out = encode(g, g.encode("v0"), zero_model)
    assert np.allclose(out, 0.0)


def test_encode_deterministic(g, tiny_model):
    toks = g.encode("v0 = 1 + 2 ;")
    assert np.array_equal(encode(g, toks, tiny_model), encode(g, toks, tiny_model))


def test_encode_order_sensitive(g, tiny_model):
    a = encode(g, g.encode("v0 = 1 ;"), tiny_model)
    b = encode(g, g.encode("; 1 = v0"), tiny_model)
    assert not np.allclose(a, b)


def test_encode_rejects_unknown_token(g, tiny_model):
    with pytest.raises(GuiderError):
        encode(g, (999,), tiny_model)
    with pytest.raises(GuiderError):
        encode(g, (), tiny_model)


@pytest.mark.parametrize("d_emb,d_h", [(8, 16), (64, 256)])
def test_encode_shared_trie_matches_forward_on_every_subspan(g, d_emb, d_h):
    m = init_model(g, d_emb=d_emb, d_h=d_h, seed=4)
    corpus = sample_corpus(g, SampleBucket(30, 30, 1, 12, seed=31), 2)
    for tokens, _ in corpus:
        states = {}
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens) + 1):
                span = tokens[i:j]
                alone, _ = _forward(m, [span], want_cache=False)
                assert np.array_equal(encode(g, span, m, states=states), alone[0])


def test_encode_errors_unchanged_with_states(g, tiny_model):
    states = {}
    toks = g.encode("v0 = 1 ;")
    expect = encode(g, toks, tiny_model)
    with pytest.raises(GuiderError, match="empty token sequence"):
        encode(g, (), tiny_model, states=states)
    with pytest.raises(GuiderError, match="unknown token id 999"):
        encode(g, toks[:2] + (999,), tiny_model, states=states)
    with pytest.raises(GuiderError, match="unknown token id -1"):
        encode(g, (-1,), tiny_model, states=states)
    assert np.array_equal(encode(g, toks, tiny_model, states=states), expect)


def test_encode_runs_one_step_per_new_prefix(g, tiny_model, monkeypatch):
    steps = []
    step = guider._gru_step
    monkeypatch.setattr(
        guider, "_gru_step", lambda *a: steps.append(1) or step(*a)
    )
    states = {}
    encode(g, g.encode("v0 = 1 ;"), tiny_model, states=states)
    encode(g, g.encode("v0 = 2 ;"), tiny_model, states=states)
    encode(g, g.encode("v0 ="), tiny_model, states=states)
    assert len(steps) == 4 + 2
    encode(g, g.encode("v0 ="), tiny_model)
    assert len(steps) == 6 + 2


def test_encode_matches_per_gate_reference_at_full_size(g):
    # The cell equations with one matmul per named gate tensor, at the
    # default size; the scalar oracle above only covers d = 2.
    m = init_model(g, d_emb=64, d_h=256, seed=8)
    p = m.params
    rng = np.random.default_rng(8)
    for name in ("b_z", "b_r", "b_h"):
        p[name][...] = rng.uniform(-0.5, 0.5, size=256)

    def sig(v):
        return 1 / (1 + np.exp(-v))

    for tokens, _ in sample_corpus(g, SampleBucket(20, 30, 5, 11, seed=9), 3):
        h = np.zeros((1, 256), dtype=np.float32)
        for tid in tokens:
            x = p["embedding"][[tid]]
            z = sig(x @ p["W_z"] + h @ p["U_z"] + p["b_z"])
            r = sig(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
            cand = np.tanh(x @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
            h = (1 - z) * h + z * cand
        assert np.abs(encode(g, tokens, m) - h[0]).max() <= 1e-6


def _rebuilt(m):
    return GuiderModel(
        {name: p.copy() for name, p in m.params.items()},
        m.d_emb, m.d_h, m.vocab_fingerprint, m.rule_fingerprint,
    )


def test_in_place_updates_reach_the_packed_gates(g):
    m = init_model(g, d_emb=8, d_h=16, seed=6)
    toks = g.encode("v0 = 1 + 2 ;")
    m.params["U_r"][...] = 0.0
    assert not m.U[:, 16:32].any()
    assert np.array_equal(encode(g, toks, m), encode(g, toks, _rebuilt(m)))

    before = encode(g, toks, m)
    _, grads = loss_and_gradients(g, _some_pairs(g, n=4), m)
    adam_step(AdamState(lr=1e-2), m.params, grads)
    after = encode(g, toks, m)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, encode(g, toks, _rebuilt(m)))


# ---------------------------------------------------------------------------
# masked distribution


def test_zero_model_uniform_over_applicable(g, zero_model):
    probs = predict_rule_distribution(
        g, g.encode("v0 = 1 ;"), g.nonterminal("Stmt"), zero_model
    )
    s1, s2 = g.rule_by_name("S1").id, g.rule_by_name("S2").id
    assert probs[s1] == pytest.approx(0.5) and probs[s2] == pytest.approx(0.5)
    assert probs.sum() == pytest.approx(1.0)


def test_masking_var_only(g, tiny_model):
    probs = predict_rule_distribution(g, g.encode("v3"), g.nonterminal("Var"), tiny_model)
    var_ids = [r.id for r in g.rules_for(g.nonterminal("Var"))]
    assert probs[var_ids].sum() == pytest.approx(1.0, abs=1e-6)
    others = np.delete(probs, var_ids)
    assert np.all(others == 0.0)


def test_distribution_normalized_everywhere(g, tiny_model):
    rng = np.random.default_rng(8)
    corpus = sample_corpus(g, SampleBucket(5, 15, 1, 9, seed=6), 20)
    for tokens, _ in corpus:
        nt = g.nonterminals[int(rng.integers(0, len(g.nonterminals)))]
        probs = predict_rule_distribution(g, tokens, nt, tiny_model)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert g.rule_by_id(int(probs.argmax())).lhs == nt


# ---------------------------------------------------------------------------
# loss and gradients


def _some_pairs(g, n=3, seed=13):
    corpus = sample_corpus(g, SampleBucket(5, 12, 1, 9, seed=seed), 3)
    pairs = [p for _, t in corpus for p in extract_training_pairs(g, t)]
    return pairs[:n]


def test_zero_model_loss_is_mean_log_k(g, zero_model):
    pairs = _some_pairs(g, n=6)
    loss, _ = loss_and_gradients(g, pairs, zero_model)
    expected = np.mean([np.log(len(g.rules_for(p.nt))) for p in pairs])
    assert loss == pytest.approx(expected, rel=1e-6)


def test_loss_invariant_under_duplication(g, tiny_model):
    pairs = _some_pairs(g, n=4)
    l1, _ = loss_and_gradients(g, pairs, tiny_model)
    l2, _ = loss_and_gradients(g, pairs + pairs, tiny_model)
    assert l1 == pytest.approx(l2, rel=1e-6)


def test_inapplicable_label_rejected(g, tiny_model):
    bad = TrainingPair(g.encode("v0"), g.nonterminal("Var"), g.rule_by_name("C1").id)
    with pytest.raises(GuiderError):
        loss_and_gradients(g, [bad], tiny_model)


def _fd_loss(g, m, pairs, name, idx, delta):
    """Loss at a perturbed coordinate, computed in float64 so that the
    finite-difference oracle stays accurate for float32 models too."""
    params = {k: v.astype(np.float64) for k, v in m.params.items()}
    params[name][idx] += delta
    m64 = GuiderModel(
        params=params,
        d_emb=m.d_emb,
        d_h=m.d_h,
        vocab_fingerprint=m.vocab_fingerprint,
        rule_fingerprint=m.rule_fingerprint,
    )
    loss, _ = loss_and_gradients(g, pairs, m64)
    return loss


def _finite_diff_check(g, seed, dtype, eps, n_coords=40):
    m = init_model(g, d_emb=4, d_h=4, seed=seed, dtype=dtype)
    pairs = _some_pairs(g, n=3, seed=seed)
    _, grads = loss_and_gradients(g, pairs, m)
    rng = np.random.default_rng(seed)
    worst = 0.0
    names = list(m.params)
    for _ in range(n_coords):
        name = names[int(rng.integers(0, len(names)))]
        p = m.params[name]
        idx = tuple(int(rng.integers(0, s)) for s in p.shape)
        lp = _fd_loss(g, m, pairs, name, idx, eps)
        lm = _fd_loss(g, m, pairs, name, idx, -eps)
        fd = (lp - lm) / (2 * eps)
        ana = grads[name][idx]
        rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-3)
        worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences_64bit(g):
    worst = max(_finite_diff_check(g, seed, np.float64, 1e-6) for seed in range(3))
    assert worst < 1e-6


def test_gradients_match_finite_differences_32bit(g):
    worst = max(_finite_diff_check(g, seed, np.float32, 1e-6) for seed in range(3))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_lr(g):
    params = {"w": np.zeros(3)}
    grads = {"w": np.array([0.3, -0.2, 0.0])}
    state = AdamState(lr=1e-4)
    adam_step(state, params, grads)
    assert params["w"][0] == pytest.approx(-1e-4, rel=1e-3)
    assert params["w"][1] == pytest.approx(1e-4, rel=1e-3)
    assert params["w"][2] == 0.0
    assert state.step == 1


def test_adam_zero_gradient_no_move(g):
    params = {"w": np.ones(4)}
    adam_step(AdamState(), params, {"w": np.zeros(4)})
    assert np.array_equal(params["w"], np.ones(4))


def test_adam_two_steps_match_closed_form_trace():
    # quadratic loss 0.5*theta^2 from theta=1; recompute the update trace
    # with explicit scalar arithmetic
    lr, b1, b2, eps = 1e-4, 0.9, 0.9, 1e-8
    theta, m, v = 1.0, 0.0, 0.0
    trace = []
    for t in (1, 2):
        grad = theta
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        trace.append(theta)

    params = {"w": np.array([1.0])}
    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    got = []
    for _ in range(2):
        adam_step(state, params, {"w": params["w"].copy()})
        got.append(float(params["w"][0]))
    assert got == pytest.approx(trace, rel=1e-12)
    assert trace[1] < trace[0] < 1.0


def test_adam_monotone_on_quadratic():
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=20)}
    state = AdamState(lr=1e-4)
    losses = []
    for _ in range(100):
        losses.append(0.5 * float(params["w"] @ params["w"]))
        adam_step(state, params, {"w": params["w"].copy()})
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(GuiderError):
        adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.array([1.0, np.inf])})


# ---------------------------------------------------------------------------
# training loop


def test_zero_iterations_returns_init(g):
    from ngparse.sampler import curriculum_schedule

    cfg = TrainConfig(d_emb=8, d_h=16, iters_per_stage=0, programs_per_stage=20,
                      heldout_programs=5, seed=12)
    model, log = train(g, curriculum_schedule(1, base_seed=12)[:1], cfg)
    ref = init_model(g, d_emb=8, d_h=16, seed=12)
    for name in ref.params:
        assert np.array_equal(model.params[name], ref.params[name])
    assert log == []


def test_training_log_deterministic(g):
    from ngparse.sampler import curriculum_schedule

    cfg = TrainConfig(d_emb=8, d_h=16, iters_per_stage=20, programs_per_stage=30,
                      heldout_programs=10, eval_every=10, seed=5)
    sched = curriculum_schedule(1, base_seed=5)[:1]
    _, log1 = train(g, sched, cfg)
    _, log2 = train(g, sched, cfg)
    assert log1 == log2 and len(log1) == 2


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_bitwise(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    back = load_model(path, g)
    assert set(back.params) == set(tiny_model.params)
    for name, p in tiny_model.params.items():
        assert np.array_equal(back.params[name], p.astype(np.float32))
    assert back.d_emb == tiny_model.d_emb and back.d_h == tiny_model.d_h


def test_load_rejects_grammar_mismatch(g, tiny_model, tmp_path):
    import dataclasses

    path = tmp_path / "m.bin"
    save_model(dataclasses.replace(tiny_model, rule_fingerprint=12345), path)
    with pytest.raises(GuiderError, match="mismatch"):
        load_model(path, g)


def test_load_rejects_bad_magic(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    data = bytearray(path.read_bytes())
    data[:5] = b"XXXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(GuiderError, match="magic"):
        load_model(path, g)



def test_fixture_model_round_trips_byte_for_byte(g, tmp_path):
    path = tmp_path / "m.bin"
    save_model(load_model(FIXTURE_MODEL, g), path)
    assert path.read_bytes() == FIXTURE_MODEL.read_bytes()


@pytest.mark.parametrize("name,shape", [("W_out", (16, 5)), ("U_r", (16, 15)), ("b_h", (15,))])
def test_load_rejects_misshaped_tensor(g, tiny_model, tmp_path, name, shape):
    path = tmp_path / "m.bin"
    save_with_tensors(path, tiny_model, **{name: np.zeros(shape, dtype=np.float32)})
    with pytest.raises(GuiderError, match=re.escape(f"tensor {name} has shape {shape},")):
        load_model(path, g)


def test_load_rejects_truncation(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GuiderError, match="truncated"):
        load_model(path, g)
