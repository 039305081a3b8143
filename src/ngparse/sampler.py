"""Random program generation under depth/length constraints.

Counting-based exact sampler: a dynamic program tabulates, per
nonterminal, how many derivation trees exist at each (depth, yield
length); top-down sampling proportional to those counts then draws a tree
uniformly among all derivations with the requested exact depth and
length. Buckets are sampled by first drawing a feasible (depth, length)
pair uniformly, so unsatisfiable buckets are detected exactly rather than
by rejection timeouts.

Also houses training-pair extraction (one pair per AST node) and the
curriculum schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .grammar import Grammar, Nonterminal
from .tree import Ast, pretty_print

__all__ = [
    "SampleBucket",
    "TrainingPair",
    "UnsatisfiableBucket",
    "sample_program",
    "sample_corpus",
    "extract_training_pairs",
    "curriculum_schedule",
    "feasible_cells",
    "derive_seed",
    "write_corpus",
    "read_corpus",
    "write_pairs",
    "read_pairs",
]

MIN_PROGRAM_LENGTH = 4  # shortest derivable program: "v0 = 0 ;"


class UnsatisfiableBucket(Exception):
    pass


@dataclass(frozen=True)
class SampleBucket:
    min_length: int
    max_length: int
    min_depth: int
    max_depth: int
    seed: int = 0

    def __post_init__(self):
        if not MIN_PROGRAM_LENGTH <= self.min_length <= self.max_length:
            raise ValueError(f"bad length range: {self}")
        if not 1 <= self.min_depth <= self.max_depth:
            raise ValueError(f"bad depth range: {self}")


@dataclass(frozen=True)
class TrainingPair:
    tokens: tuple
    nt: Nonterminal
    rule_id: int


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a namespace path, e.g. ("train", 7, 2)."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Counting tables


def _conv(a, b, cap):
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj and i + j <= cap:
                    out[i + j] += ai * bj
    return out


class _CountTable:
    """Tree counts by (depth bound, exact yield length), per nonterminal.

    leq[nt][d][l]    : trees rooted at nt with depth <= d and yield length l.
    suffix[r][d][j]  : convolution of leq arrays (at depth bound d) for the
                       rule's nonterminal children j..k-1; suffix[r][d][k]
                       is the delta at the rule's terminal count.
    Counts are exact Python integers (they overflow floats quickly).
    """

    def __init__(self, g: Grammar, max_depth: int, max_length: int):
        self.g = g
        self.max_depth = max_depth
        self.max_length = max_length
        cap = max_length
        zeros = [0] * (cap + 1)

        self.leq = {nt.id: [list(zeros)] for nt in g.nonterminals}
        self.suffix = {r.id: [None] * (max_depth + 1) for r in g.rules}
        self.by_rule = {r.id: [list(zeros)] for r in g.rules}

        for d in range(1, max_depth + 1):
            for r in g.rules:
                kids = r.rhs_nonterminals()
                tcount = r.rhs_terminal_count()
                base = list(zeros)
                if tcount <= cap:
                    base[tcount] = 1
                suffixes = [base]  # suffix over kids j..end, built right-to-left
                for kid in reversed(kids):
                    suffixes.append(_conv(self.leq[kid.id][d - 1], suffixes[-1], cap))
                suffixes.reverse()
                self.suffix[r.id][d - 1] = suffixes
                self.by_rule[r.id].append(suffixes[0])
            for nt in g.nonterminals:
                total = list(zeros)
                for r in g.rules:
                    if r.lhs.id == nt.id:
                        arr = self.by_rule[r.id][d]
                        for l, c in enumerate(arr):
                            total[l] += c
                self.leq[nt.id].append(total)

    def exact(self, nt_id: int, d: int, l: int) -> int:
        if d < 1 or d > self.max_depth or l > self.max_length:
            return 0
        return self.leq[nt_id][d][l] - self.leq[nt_id][d - 1][l]


# Count tables, least recently used first, keyed by (rule fingerprint,
# vocabulary fingerprint, depth cap, length cap): grammars with the same
# rules and vocabulary share a table (the fingerprints are how model files
# identify a grammar too), and the cache stays small however many grammars
# are built.
_TABLES = {}
_MAX_TABLES = 8


def _table(g: Grammar, max_depth: int, max_length: int) -> _CountTable:
    # Round caps up so nearby requests share one table.
    max_depth = max(max_depth, 8)
    max_length = max(max_length, 16)
    key = (g.rule_fingerprint(), g.vocab_fingerprint(), max_depth, max_length)
    t = _TABLES.pop(key, None)
    if t is None:
        t = _CountTable(g, max_depth, max_length)
        if len(_TABLES) >= _MAX_TABLES:
            del _TABLES[next(iter(_TABLES))]
    _TABLES[key] = t
    return t


# ---------------------------------------------------------------------------
# Exact sampling


def _rand_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n."""
    if n <= 0:
        raise ValueError("empty choice")
    bits = n.bit_length()
    words = (bits + 31) // 32
    while True:
        r = 0
        for w in map(int, rng.integers(0, 1 << 32, size=words, dtype=np.uint64)):
            r = (r << 32) | w
        r &= (1 << bits) - 1
        if r < n:
            return r


def _weighted_pick(rng, weights) -> int:
    total = sum(weights)
    x = _rand_below(rng, total)
    for i, w in enumerate(weights):
        if x < w:
            return i
        x -= w
    raise AssertionError("unreachable")


def _split_lengths(rng, arrays, suffixes, total):
    """Pick one length per child array, proportional to counts, summing
    (with the rule's terminals, already inside suffixes) to total."""
    lengths = []
    remaining = total
    for j, arr in enumerate(arrays):
        suffix = suffixes[j + 1]
        weights = []
        choices = []
        for lj, c in enumerate(arr):
            if c and lj <= remaining and suffix[remaining - lj]:
                weights.append(c * suffix[remaining - lj])
                choices.append(lj)
        lj = choices[_weighted_pick(rng, weights)]
        lengths.append(lj)
        remaining -= lj
    return lengths


def _sample_leq(tab: _CountTable, rng, nt_id: int, d: int, l: int) -> Ast:
    g = tab.g
    rules = [r for r in g.rules if r.lhs.id == nt_id]
    weights = [tab.by_rule[r.id][d][l] for r in rules]
    r = rules[_weighted_pick(rng, weights)]
    kids = r.rhs_nonterminals()
    if not kids:
        return Ast(r.id)
    arrays = [tab.leq[k.id][d - 1] for k in kids]
    suffixes = tab.suffix[r.id][d - 1]
    lengths = _split_lengths(rng, arrays, suffixes, l)
    children = tuple(
        _sample_leq(tab, rng, k.id, d - 1, lk) for k, lk in zip(kids, lengths)
    )
    return Ast(r.id, children)


def _sample_exact(tab: _CountTable, rng, nt_id: int, d: int, l: int) -> Ast:
    """Uniform tree with depth exactly d and yield length exactly l."""
    g = tab.g
    rules = [r for r in g.rules if r.lhs.id == nt_id]
    weights = [
        tab.by_rule[r.id][d][l] - (tab.by_rule[r.id][d - 1][l] if d >= 2 else 0)
        for r in rules
    ]
    r = rules[_weighted_pick(rng, weights)]
    kids = r.rhs_nonterminals()
    if not kids:
        return Ast(r.id)

    cap = tab.max_length
    zeros = [0] * (cap + 1)
    le_deep = [tab.leq[k.id][d - 1] for k in kids]  # depth <= d-1
    le_shallow = [
        tab.leq[k.id][d - 2] if d >= 2 else list(zeros) for k in kids
    ]  # depth <= d-2
    exact = [
        [a - b for a, b in zip(deep, shallow)]
        for deep, shallow in zip(le_deep, le_shallow)
    ]

    tcount = r.rhs_terminal_count()
    base = list(zeros)
    if tcount <= cap:
        base[tcount] = 1

    # Partition by the first child that attains depth exactly d-1: earlier
    # children stay <= d-2, later ones <= d-1.
    variants = []
    for i in range(len(kids)):
        arrays = [le_shallow[j] for j in range(i)] + [exact[i]] + [
            le_deep[j] for j in range(i + 1, len(kids))
        ]
        suffixes = [base]
        for arr in reversed(arrays):
            suffixes.append(_conv(arr, suffixes[-1], cap))
        suffixes.reverse()
        variants.append((arrays, suffixes))
    i = _weighted_pick(rng, [v[1][0][l] for v in variants])
    arrays, suffixes = variants[i]
    lengths = _split_lengths(rng, arrays, suffixes, l)

    children = []
    for j, (k, lk) in enumerate(zip(kids, lengths)):
        if j < i:
            children.append(_sample_leq(tab, rng, k.id, d - 2, lk))
        elif j == i:
            children.append(_sample_exact(tab, rng, k.id, d - 1, lk))
        else:
            children.append(_sample_leq(tab, rng, k.id, d - 1, lk))
    return Ast(r.id, tuple(children))


def feasible_cells(g: Grammar, bucket: SampleBucket) -> list:
    """All (depth, length) pairs inside the bucket with at least one tree."""
    tab = _table(g, bucket.max_depth, bucket.max_length)
    cells = []
    for d in range(bucket.min_depth, bucket.max_depth + 1):
        for l in range(bucket.min_length, bucket.max_length + 1):
            if tab.exact(g.start.id, d, l) > 0:
                cells.append((d, l))
    return cells


def sample_program(g: Grammar, bucket: SampleBucket, rng=None):
    """Draw one (token sequence, tree) with depth and length in the bucket.

    The (depth, length) pair is uniform over the bucket's feasible cells;
    the tree is uniform among derivations of that exact pair. Reproducible
    from bucket.seed when no rng is passed.
    """
    if rng is None:
        rng = np.random.default_rng(bucket.seed)
    cells = feasible_cells(g, bucket)
    if not cells:
        raise UnsatisfiableBucket(f"no derivation fits {bucket}")
    d, l = cells[_rand_below(rng, len(cells))]
    tab = _table(g, bucket.max_depth, bucket.max_length)
    t = _sample_exact(tab, rng, g.start.id, d, l)
    return pretty_print(g, t), t


def sample_corpus(g: Grammar, bucket: SampleBucket, n: int, rng=None) -> list:
    if rng is None:
        rng = np.random.default_rng(bucket.seed)
    return [sample_program(g, bucket, rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Training pairs and curriculum


def extract_training_pairs(g: Grammar, t: Ast) -> list:
    """One (subtree yield, subtree root type, applied rule) per node,
    in pre-order."""
    yields = {}

    def fill(node: Ast) -> tuple:
        rule = g.rule_by_id(node.rule_id)
        out = []
        child_iter = iter(node.children)
        for sym in rule.rhs:
            if isinstance(sym, Nonterminal):
                out.extend(fill(next(child_iter)))
            else:
                out.append(sym.id)
        toks = tuple(out)
        yields[id(node)] = toks
        return toks

    fill(t)
    pairs = []

    def walk(node: Ast):
        rule = g.rule_by_id(node.rule_id)
        pairs.append(TrainingPair(yields[id(node)], rule.lhs, node.rule_id))
        for c in node.children:
            walk(c)

    walk(t)
    return pairs


def curriculum_schedule(stages: int, base_seed: int = 0, repeats: int = 3) -> list:
    """Buckets of gradually increasing max length (7..15) and depth (7..9),
    with the whole stage sequence repeated (three times by default).

    Depth interpolation starts at 7 because programs of length >= 5 under
    this grammar all have depth >= 7; a shallower stage bucket would be
    unsatisfiable.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    buckets = []
    for rep in range(repeats):
        for i in range(stages):
            frac = i / (stages - 1) if stages > 1 else 1.0
            max_len = round(7 + frac * 8)
            max_depth = round(7 + frac * 2)
            if stages == 1:
                max_depth = 9
            buckets.append(
                SampleBucket(
                    min_length=5,
                    max_length=max_len,
                    min_depth=1,
                    max_depth=max_depth,
                    seed=derive_seed("train", base_seed, rep, i),
                )
            )
    return buckets


# ---------------------------------------------------------------------------
# File formats


def write_corpus(g: Grammar, items, path) -> None:
    from .tree import serialize

    with open(path, "w") as fh:
        for tokens, t in items:
            fh.write(f"{g.decode(tokens)}\t{serialize(g, t)}\n")


def read_corpus(g: Grammar, path) -> list:
    from .tree import deserialize

    items = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            text, ast_text = line.split("\t")
            items.append((g.encode(text), deserialize(g, ast_text)))
    return items


def write_pairs(g: Grammar, pairs, path) -> None:
    with open(path, "w") as fh:
        for p in pairs:
            fh.write(f"{g.decode(p.tokens)}\t{p.nt.name}\t{p.rule_id}\n")


def read_pairs(g: Grammar, path) -> list:
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            text, nt_name, rule_id = line.split("\t")
            pairs.append(TrainingPair(g.encode(text), g.nonterminal(nt_name), int(rule_id)))
    return pairs
