"""Counter-based random substreams.

Every stochastic operation in this package derives its randomness from
(seed, *key) through a SeedSequence, so item i of a Monte-Carlo loop gets
the same draws no matter which order items are evaluated in, how many
threads run, or whether the loop is later extended past i.

Map rows (channel CH_ROW) and model points (CH_POINT) are keyed by block:
items [b BLOCK, (b+1) BLOCK) come from substream (seed, channel, b).  numpy
fills arrays sequentially and a block of points is always drawn in full, so
item i is the same for every count > i: a smaller map is a row prefix of a
larger one.

RNG_LAYOUT numbers the mapping from keys to draws; it changes whenever
seeded outputs change on purpose.  Layout 1 keyed every map row by its own
substream (seed, CH_ROW, i); layout 2 keyed rows by block; layout 3 keys
model points by block too (not (seed, i) per point) and gives each sweep
trial t one map (seed, CH_TRIAL, t) whose m-row prefixes serve every m;
layout 4 samples the secants of an explicit point set from a stream of
uniform point indices keyed by block like model points, not pair i from
(seed, i).
"""

from __future__ import annotations

import numpy as np

RNG_LAYOUT = 4

# items per substream for map rows and model points
BLOCK = 256

# channel tags keeping unrelated draw streams of one operation disjoint
CH_ROW = 1
CH_SECANT = 2
CH_MAP = 3
CH_TRIAL = 4
CH_MU = 5
CH_BATCH = 6
CH_POINT = 7


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the (seed, *key) slot."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def child_seed(seed: int, *key: int) -> int:
    """Derived integer seed for APIs that take a seed rather than a Generator."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
