"""Brute-force partitions for the tests: every restricted-growth string, built recursively."""

from grpd.core import Partition


def restricted_growth_strings(n, prefix=()):
    """Every string of length n that starts at 0 and never rises more than
    one above its running maximum, in lexicographic order."""
    if len(prefix) == n:
        yield prefix
        return
    for label in range(max(prefix, default=-1) + 2):
        yield from restricted_growth_strings(n, prefix + (label,))


def all_partitions(n):
    """Every partition of {0,..,n-1} once: finest first, and in
    restricted-growth order within one block count."""
    return [Partition(r) for r in sorted(restricted_growth_strings(n), key=lambda r: -max(r))]
