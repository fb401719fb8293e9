"""Counter-based random substreams.

Every stochastic operation in this package derives its randomness from
(seed, *key) through a SeedSequence, so item i of a Monte-Carlo loop gets
the same draws no matter which order items are evaluated in, how many
threads run, or whether the loop is later extended past i.

Map rows are keyed by block rather than by row: rows [b B, (b+1) B) of a
map come from one row-major draw on (seed, CH_ROW, b), B = ROW_BLOCK in
`embeddings`.  numpy fills arrays sequentially, so row i is the same for
every m > i and a smaller map stays a row prefix of a larger one.

RNG_LAYOUT numbers the mapping from keys to draws; it changes whenever
seeded outputs change on purpose.  Layout 1 keyed every map row by its own
substream (seed, CH_ROW, i); layout 2 keys rows by block of ROW_BLOCK.
"""

from __future__ import annotations

import numpy as np

RNG_LAYOUT = 2

# channel tags keeping unrelated draw streams of one operation disjoint
CH_ROW = 1
CH_SECANT = 2
CH_MAP = 3
CH_TRIAL = 4
CH_MU = 5
CH_BATCH = 6


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the (seed, *key) slot."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def child_seed(seed: int, *key: int) -> int:
    """Derived integer seed for APIs that take a seed rather than a Generator."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
