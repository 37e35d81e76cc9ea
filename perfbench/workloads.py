"""Workload inputs, generated from the seed alone.

Each workload is a list of operations run in order by one client in a
closed loop.  An operation is either one `qalt` CLI request (its argv) or,
where the CLI does not reach the layer, one exact check made through the
library: `hecke_relations` runs `hecke_f_relation_check_exact(n)`, and
`hecke_image` expands a y-word and its rewritten normal form in the
T-basis of H_n(q), which must agree exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# q points of the acceptance suite, plus one complex point
SAMPLE_Q = ("2", "3/2", "5/7", "0.3", "1.7")
COMPLEX_Q = "1+0.5i"

# rewrite requests (in certify): a fixed number of words in every (n,
# length) cell.  Words up to SEEDED_MAX_LENGTH draw their letters from the
# run's seed.  Longer words, the exact Hecke-image words and the verify
# word-check seed come from one fixed draw (FIXED_SEED): their cost is
# heavy-tailed in the letters (one length-16 word can take 100x the median
# of its cell), so seeding them would make the pass time depend more on the
# seed than on the code.
REWRITE_NS = (5, 6, 7)
REWRITE_LENGTHS = tuple(range(1, 17))
SEEDED_MAX_LENGTH = 6
SEEDED_WORDS_PER_CELL = 2
FIXED_WORDS_PER_CELL = 1
FIXED_SEED = "perfbench-fixed-inputs"
# exact Hecke-image checks: (n, word length) cells, one fixed word each
HECKE_IMAGE_CELLS = ((4, 3), (5, 3), (5, 4))


@dataclass(frozen=True)
class Op:
    """One operation: a CLI request or a library check."""

    kind: str                        # "cli", "hecke_relations", "hecke_image"
    argv: tuple[str, ...] = ()
    n: int = 0
    letters: tuple[int, ...] = ()    # y-word letters, for checks
    q: str | None = None

    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.argv)
        word = " ".join(f"y{k}" for k in self.letters)
        return f"{self.kind} n={self.n} {word}".rstrip()


def _cli(*argv) -> Op:
    return Op("cli", tuple(str(a) for a in argv))


def _word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, n - 2) for _ in range(length))


def _around(rng: random.Random, small: list[Op], long: Op) -> list[Op]:
    """The small requests in seeded order, half before the long one and half
    after, so that their latencies come from two stretches of time."""
    rng.shuffle(small)
    half = len(small) // 2
    return small[:half] + [long] + small[half:]


def decompose(rng: random.Random) -> list[Op]:
    # n = 6 only: classify --n 7 takes about 41 s on one BLAS thread, which
    # leaves no room for more than one sample per run.  classify at every q
    # point puts the median latency inside a cluster of like requests; the
    # seed picks the two real q of the real-q induction requests.
    ops = [_cli("classify", "--n", 6, "--q", q)
           for q in SAMPLE_Q + (COMPLEX_Q,)]
    ops += [_cli("induce", "--n", 6, "--q", q)
            for q in rng.sample(SAMPLE_Q, 2) + [COMPLEX_Q]]
    ops.append(_cli("induce", "--n", 5, "--q", COMPLEX_Q))
    rng.shuffle(ops)
    return ops


def _rewrites(rng: random.Random, fixed: random.Random) -> list[Op]:
    requests = []
    for n in REWRITE_NS:
        for length in REWRITE_LENGTHS:
            seeded = length <= SEEDED_MAX_LENGTH
            count = SEEDED_WORDS_PER_CELL if seeded else FIXED_WORDS_PER_CELL
            for _ in range(count):
                letters = _word(rng if seeded else fixed, n, length)
                q = rng.choice(SAMPLE_Q + (COMPLEX_Q,))
                text = " ".join(f"y{k}" for k in letters)
                requests.append(Op("cli", ("rewrite", "--n", str(n), "--word",
                                           text, "--q", q),
                                   n=n, letters=letters, q=q))
    return requests


def certify(rng: random.Random) -> list[Op]:
    # The numeric requests: exact rational q takes a slower path than float
    # q in verify, so each request keeps its kind of q and the seed picks
    # only the value, and a shape or its conjugate (same dimension, same
    # cost).  The exact side: rewrite requests, the verify word checks and
    # the exact Hecke checks, all pure Python; they are kept to about a
    # tenth of the pass, because pure-Python time on a shared host swings
    # by half from one minute to the next, far more than the rank SVD.
    fixed = random.Random(FIXED_SEED)
    rational = ("2", "3/2", "5/7")
    shapes = ("4,2,1", "3,2,1,1")
    small = [_cli("tableaux", "--n", 8),
             _cli("dim", "--n", 6, "--q", rng.choice(rational)),
             _cli("verify", "--n", 7, "--q", rng.choice(rational)),
             _cli("symmetry", "--shape", rng.choice(shapes),
                  "--q", rng.choice(("0.3", "1.7"))),
             _cli("rep", "--shape", rng.choice(shapes),
                  "--q", rng.choice(rational)),
             _cli("verify", "--n", 6, "--q", rng.choice(SAMPLE_Q),
                  "--seed", fixed.randrange(10**6))]
    small += _rewrites(rng, fixed)
    checks = [Op("hecke_relations", n=5)]
    checks += [Op("hecke_image", n=n, letters=_word(fixed, n, length))
               for n, length in HECKE_IMAGE_CELLS]
    return _around(rng, small, _cli("dim", "--n", 7)) + checks


WORKLOADS = {"decompose": decompose, "certify": certify}


def generate(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
