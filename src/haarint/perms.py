"""Permutations of {0..k-1} as tuples: p[i] is the image of slot i.

Composition is (p * q)(i) = p(q(i)), matching operator order when
permutations act on tensor slots.
"""

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(p[q[i]] for i in range(len(p)))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths, sorted descending."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def sign(p: Perm) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    return -1 if sum(n - 1 for n in cycle_type(p)) % 2 else 1

