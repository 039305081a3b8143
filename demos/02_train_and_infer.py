"""Train a small rule selector and use it for guided inference.

A scaled-down curriculum run (a couple of minutes); the full
configuration just raises d_emb/d_h and the iteration counts.

Run: python3 demos/02_train_and_infer.py
"""

import time

from ngparse import (
    InferConfig,
    SampleBucket,
    TrainConfig,
    build_grammar,
    curriculum_schedule,
    infer,
    model_selector,
    predict_rule_distribution,
    sample_corpus,
    train,
)

g = build_grammar()

print("training on programs with depth <= 9, length <= 15 ...")
cfg = TrainConfig(
    d_emb=32,
    d_h=64,
    iters_per_stage=300,
    programs_per_stage=400,
    heldout_programs=100,
    seed=1,
)
t0 = time.perf_counter()
model, log = train(g, curriculum_schedule(2, base_seed=1), cfg)
stage, it, loss, acc = log[-1]
print(f"done in {time.perf_counter() - t0:.0f}s; "
      f"final held-out step accuracy {acc:.3f}")

print("\nwhat the selector believes for 'v0 = 1 ;' at the root:")
probs = predict_rule_distribution(g, g.encode("v0 = 1 ;"), g.start, model)
for r in g.rules_for(g.start):
    print(f"  {r.name}: {probs[r.id]:.3f}")

print("\nguided inference on out-of-distribution programs (length 20-24):")
corpus = sample_corpus(g, SampleBucket(20, 24, 1, 11, seed=9), 50)
selector = model_selector(g, model)
ok = sum(
    infer(g, tokens, selector, InferConfig(mode="fallback")) == tree
    for tokens, tree in corpus
)
print(f"exact match {ok}/{len(corpus)}")
