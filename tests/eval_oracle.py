"""Reference implementation of the J-fiber as it stood before it was built
directly: every choice of first components and dropped top bits is
generated, deduplicated and kept when j_encode maps it back onto the
string.  Kept as a differential oracle for tests/test_evaluate.py."""

import itertools

from logifp.encode import j_encode


def j_fiber(n: int, z: str, chunk_width: int):
    """All arity-2 relations whose lexicographic J-image is exactly `z`."""
    count = len(z) // chunk_width
    lows = [
        int(z[j * chunk_width:(j + 1) * chunk_width][::-1], 2)
        for j in range(count)
    ]
    if count == 0:
        yield frozenset()
        return
    seen = set()
    for firsts in itertools.product(range(n), repeat=count):
        for tops in itertools.product((0, 1), repeat=count):
            seconds = [low + top * (1 << chunk_width) for low, top in zip(lows, tops)]
            if any(b >= n for b in seconds):
                continue
            rel = frozenset(zip(firsts, seconds))
            if rel in seen:
                continue
            seen.add(rel)
            if j_encode(n, rel) == z:
                yield rel
