"""Brute-force spectrum for the tests: every bracketing tabulated on its own, then grouped."""

from grpd.bracketings import enumerate_bracketings
from grpd.spectrum import term_function


def group_bracketings(n, key):
    """The indices of the bracketings of size n grouped by ``key(bracketing)``:
    groups in order of first occurrence, each ascending."""
    groups = {}
    for idx, b in enumerate(enumerate_bracketings(n)):
        groups.setdefault(key(b), []).append(idx)
    return tuple(map(tuple, groups.values()))


def spectrum_classes(g, n):
    """The equal-function classes of size n on g, keyed by each bracketing's
    whole int64 term-function table."""
    return group_bracketings(n, lambda b: term_function(g, b).tobytes())
