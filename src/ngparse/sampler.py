"""Random program generation under depth/length constraints.

Counting-based exact sampler (the recursive method of Nijenhuis & Wilf,
and of Flajolet, Zimmermann & Van Cutsem): a dynamic program tabulates,
per nonterminal, how many derivation trees exist at each (depth, yield
length). One top-down routine then draws a tree uniformly among those of
depth at most d or exactly d and length exactly l, choosing each rule,
depth plan and child length in proportion to the trees it leaves. Buckets
are sampled by first drawing a feasible (depth, length) pair uniformly, so
unsatisfiable buckets are detected exactly rather than by rejection
timeouts.

Also houses training-pair extraction (one pair per AST node) and the
curriculum schedule.
"""

from __future__ import annotations

import hashlib
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .grammar import Grammar, GrammarError, Nonterminal, check_int
from .tree import Ast, pretty_print, yield_spans

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
        for name in ("min_length", "max_length", "min_depth", "max_depth"):
            check_int(name, getattr(self, name))
        check_int("seed", self.seed, 0)
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


def _plans(rule, d: int, exact: bool) -> list:
    """The ways rule's children make a tree of depth at most d, or exactly
    d, each a plan: one (depth bound, exact?) per rhs nonterminal. A tree
    of depth exactly d is split by its first child of depth exactly d-1:
    the children before it stay within d-2, those after it within d-1. A
    rule without nonterminals makes a tree of depth exactly 1."""
    k = len(rule.rhs_nonterminals())
    if exact and not k and d > 1:
        return []
    if not exact or not k:
        return [((d - 1, False),) * k]
    return [
        ((d - 2, False),) * i + ((d - 1, True),) + ((d - 1, False),) * (k - i - 1)
        for i in range(k)
    ]


class _CountTable:
    """Tree counts by (depth bound, exact yield length), per nonterminal.

    leq[nt][d][l] : trees rooted at nt with depth <= d and yield length l.
    rule_counts and suffixes are memoised on first use; suffixes makes
    every convolution. Count arrays are indexed by yield length up to
    max_length and hold exact Python integers (they overflow floats
    quickly). So are the sampler's picks: each rule, plan and child
    length pick keeps its cumulative weights, the running sums of the
    trees each choice leaves.
    """

    def __init__(self, g: Grammar, max_depth: int, max_length: int):
        self.max_depth = max_depth
        self.max_length = max_length
        self.rules_by_lhs = g.rules_by_lhs
        self._zeros = [0] * (max_length + 1)
        self._rule_counts = {}
        self._suffixes = {}
        self._rule_picks = {}
        self._plan_picks = {}
        self._length_picks = {}
        self.leq = {nt.id: [self._zeros] for nt in g.nonterminals}
        for d in range(1, max_depth + 1):
            for nt in g.nonterminals:
                self.leq[nt.id].append(self._total(self.rule_counts(nt.id, d, False)))

    def exact(self, nt_id: int, d: int, l: int) -> int:
        if d < 1 or d > self.max_depth or l > self.max_length:
            return 0
        return self.leq[nt_id][d][l] - self.leq[nt_id][d - 1][l]

    def _total(self, arrays) -> list:
        """Elementwise sum; all zeros when there are no arrays."""
        return [sum(c) for c in zip(self._zeros, *arrays)]

    def rule_counts(self, nt_id: int, d: int, exact: bool) -> list:
        """Per rule of nt, its trees by length at depth <= d (or exactly d):
        the sum over the rule's plans."""
        key = (nt_id, d, exact)
        out = self._rule_counts.get(key)
        if out is None:
            out = self._rule_counts[key] = [
                self._total(self.suffixes(r, p)[1][0] for p in _plans(r, d, exact))
                for r in self.rules_by_lhs[nt_id]
            ]
        return out

    def suffixes(self, rule, plan) -> tuple:
        """(arrays, suffixes) of a rule under a plan: arrays[j] counts child
        j's trees by length within plan[j]; suffixes[j] convolves arrays
        j..k-1 with suffixes[k], the delta at the rule's terminal count."""
        key = (rule.id, plan)
        out = self._suffixes.get(key)
        if out is None:
            arrays = [
                self._counts(kid.id, d, exact)
                for kid, (d, exact) in zip(rule.rhs_nonterminals(), plan)
            ]
            cap, tcount = self.max_length, rule.rhs_terminal_count()
            base = list(self._zeros)
            if tcount <= cap:
                base[tcount] = 1
            suffixes = [base]
            for arr in reversed(arrays):
                suffixes.append(_conv(arr, suffixes[-1], cap))
            out = self._suffixes[key] = (arrays, suffixes[::-1])
        return out

    def rule_pick(self, nt_id: int, d: int, l: int, exact: bool) -> list:
        """Cumulative weights of nt's rules for a tree of length l at depth
        <= d (or exactly d)."""
        key = (nt_id, d, l, exact)
        cum = self._rule_picks.get(key)
        if cum is None:
            cum = self._rule_picks[key] = list(
                accumulate(c[l] for c in self.rule_counts(nt_id, d, exact))
            )
        return cum

    def plan_pick(self, rule, d: int, l: int) -> tuple:
        """(plans, cumulative weights) of rule's plans for a tree of length
        l and depth exactly d."""
        key = (rule.id, d, l)
        out = self._plan_picks.get(key)
        if out is None:
            plans = _plans(rule, d, True)
            out = self._plan_picks[key] = (
                plans, list(accumulate(self.suffixes(rule, p)[1][0][l] for p in plans))
            )
        return out

    def length_pick(self, rule, plan, j: int, remaining: int) -> tuple:
        """(lengths, cumulative weights) for child j of rule under plan
        when children j.. and the rule's terminals yield remaining tokens:
        each length with trees for child j and for the rest."""
        key = (rule.id, plan, j, remaining)
        out = self._length_picks.get(key)
        if out is None:
            arrays, suffixes = self.suffixes(rule, plan)
            suffix = suffixes[j + 1]
            choices, weights = [], []
            for lj, c in enumerate(arrays[j][: remaining + 1]):
                if c and suffix[remaining - lj]:
                    choices.append(lj)
                    weights.append(c * suffix[remaining - lj])
            out = self._length_picks[key] = (choices, list(accumulate(weights)))
        return out

    def _counts(self, nt_id: int, d: int, exact: bool) -> list:
        if d < 1:
            return self._zeros
        leq = self.leq[nt_id]
        return [a - b for a, b in zip(leq[d], leq[d - 1])] if exact else leq[d]


# One count table per grammar, going with its grammar. A count within a
# table's caps does not depend on the caps, so a request past them
# replaces the table with one as large as both and the draws stay the same.
_tables = weakref.WeakKeyDictionary()


def _table(g: Grammar, max_depth: int, max_length: int) -> _CountTable:
    t = _tables.get(g)
    if t is None:
        t = _tables[g] = _CountTable(g, max_depth, max_length)
    elif t.max_depth < max_depth or t.max_length < max_length:
        t = _tables[g] = _CountTable(
            g, max(max_depth, t.max_depth), max(max_length, t.max_length)
        )
    return t


# ---------------------------------------------------------------------------
# Exact sampling


_MAX_BLOCK = 4096  # words per block: bounds the memory a block takes


class _Words:
    """32-bit words of a Generator's stream, drawn in blocks.

    A block of k words is the same stream as k one-word draws. close()
    leaves the generator where one-word draws would have: it restores the
    state saved at the start and draws again exactly the words served.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.state = rng.bit_generator.state
        self.block = []
        self.pos = 0
        self.served = 0  # words of the blocks before this one

    def __next__(self) -> int:
        if self.pos == len(self.block):
            self.served += len(self.block)
            self.block = self._draw(min(max(64, 2 * len(self.block)), _MAX_BLOCK)).tolist()
            self.pos = 0
        self.pos += 1
        return self.block[self.pos - 1]

    def _draw(self, k: int) -> np.ndarray:
        return self.rng.integers(0, 1 << 32, size=k, dtype=np.uint64)

    def close(self) -> None:
        self.rng.bit_generator.state = self.state
        left = self.served + self.pos
        while left:
            k = min(left, _MAX_BLOCK)
            self._draw(k)
            left -= k


def _rand_below(words, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n, from 32-bit
    words, the first the most significant."""
    if n <= 0:
        raise ValueError("empty choice")
    bits = n.bit_length()
    count = (bits + 31) // 32
    while True:
        r = 0
        for _ in range(count):
            r = (r << 32) | next(words)
        r &= (1 << bits) - 1
        if r < n:
            return r


def _weighted_pick(words, cum) -> int:
    """Index drawn in proportion to its weight, cum holding the running
    sums of the weights: the first whose sum exceeds a uniform draw below
    the total, so a zero weight is never drawn."""
    return bisect_right(cum, _rand_below(words, cum[-1]))


def _sample(tab: _CountTable, words, nt_id: int, d: int, l: int, exact: bool) -> Ast:
    """Uniform tree rooted at nt_id with yield length l and depth exactly d
    (exact) or at most d. Draws a rule, then (exact only) a plan, then the
    children's lengths, each in proportion to the trees it leaves; the
    children follow the plan."""
    r = tab.rules_by_lhs[nt_id][_weighted_pick(words, tab.rule_pick(nt_id, d, l, exact))]
    kids = r.rhs_nonterminals()
    if not kids:
        return Ast(r.id)
    if exact:
        plans, cum = tab.plan_pick(r, d, l)
        plan = plans[_weighted_pick(words, cum)]
    else:
        plan = _plans(r, d, False)[0]
    lengths = []
    remaining = l
    for j in range(len(kids)):
        choices, cum = tab.length_pick(r, plan, j, remaining)
        lj = choices[_weighted_pick(words, cum)]
        lengths.append(lj)
        remaining -= lj
    return Ast(r.id, tuple(
        _sample(tab, words, kid.id, kd, lk, kexact)
        for kid, (kd, kexact), lk in zip(kids, plan, lengths)
    ))


def _cells(tab: _CountTable, nt_id: int, bucket: SampleBucket) -> list:
    return [
        (d, l)
        for d in range(bucket.min_depth, bucket.max_depth + 1)
        for l in range(bucket.min_length, bucket.max_length + 1)
        if tab.exact(nt_id, d, l) > 0
    ]


def feasible_cells(g: Grammar, bucket: SampleBucket) -> list:
    """All (depth, length) pairs inside the bucket with at least one tree."""
    return _cells(_table(g, bucket.max_depth, bucket.max_length), g.start.id, bucket)


def sample_program(g: Grammar, bucket: SampleBucket, rng=None):
    """Draw one (token sequence, tree) with depth and length in the bucket;
    see sample_corpus."""
    return sample_corpus(g, bucket, 1, rng)[0]


def sample_corpus(g: Grammar, bucket: SampleBucket, n: int, rng=None) -> list:
    """Draw n (token sequence, tree) pairs with depth and length in the
    bucket.

    Each draw's (depth, length) pair is uniform over the bucket's feasible
    cells; the tree is uniform among derivations of that exact pair.
    Reproducible from bucket.seed when no rng is passed.
    """
    check_int("n", n, 0)
    if rng is None:
        rng = np.random.default_rng(bucket.seed)
    elif not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    tab = _table(g, bucket.max_depth, bucket.max_length)
    cells = _cells(tab, g.start.id, bucket)
    if n and not cells:
        raise UnsatisfiableBucket(f"no derivation fits {bucket}")
    out = []
    words = _Words(rng)
    try:
        for _ in range(n):
            d, l = cells[_rand_below(words, len(cells))]
            t = _sample(tab, words, g.start.id, d, l, True)
            out.append((pretty_print(g, t), t))
    finally:
        words.close()
    return out


# ---------------------------------------------------------------------------
# Training pairs and curriculum


def extract_training_pairs(g: Grammar, t: Ast) -> list:
    """One (subtree yield, subtree root type, applied rule) per node, in
    preorder. Raises TreeError as pretty_print does: at the first fault
    met by a walk that checks a node's child count on reaching it and each
    child's lhs just before descending into that child."""
    toks, spans = yield_spans(g, t)
    return [TrainingPair(toks[a:b], rule.lhs, rule.id) for rule, a, b in spans]


def curriculum_schedule(stages: int, base_seed: int = 0, repeats: int = 3) -> list:
    """Buckets of gradually increasing max length (7..15) and depth (7..9),
    with the whole stage sequence repeated (three times by default).

    Depth interpolation starts at 7 because programs of length >= 5 under
    this grammar all have depth >= 7; a shallower stage bucket would be
    unsatisfiable.
    """
    check_int("stages", stages, 1)
    check_int("repeats", repeats, 1)
    buckets = []
    for rep in range(repeats):
        for i in range(stages):
            frac = i / (stages - 1) if stages > 1 else 1.0
            max_len = round(7 + frac * 8)
            max_depth = round(7 + frac * 2)
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
    """Read a write_corpus file. A line that is not a program and its tree
    text, separated by one tab, raises TreeError (GrammarError for a word
    outside the vocabulary) naming its 1-based line number."""
    from .tree import TreeError, deserialize

    items = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            try:
                if len(fields) != 2:
                    raise TreeError(f"expected 2 tab-separated fields, got {len(fields)}")
                items.append((g.encode(fields[0]), deserialize(g, fields[1])))
            except (TreeError, GrammarError) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
    return items


def write_pairs(g: Grammar, pairs, path) -> None:
    with open(path, "w") as fh:
        for p in pairs:
            fh.write(f"{g.decode(p.tokens)}\t{p.nt.name}\t{p.rule_id}\n")
