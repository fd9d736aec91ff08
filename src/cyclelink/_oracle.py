"""Naive reference deciders, deliberately independent of the fast engine.

These enumerate raw assignments and are used as the agreement oracle by
the sweep command and the test suite.  Not part of the public API.
"""

from __future__ import annotations

from itertools import product

from .graph import Graph, bits, mask_of
from .minor import MinorModel


def naive_rooted_cycle_minor(g: Graph, seq) -> MinorModel | None:
    """Decide a rooted C_k-minor by enumerating every assignment of
    non-root vertices to a branch set or to 'unused'."""
    seq = tuple(seq)
    k = len(seq)
    others = [v for v in g.vertices() if v not in seq]
    base = [1 << r for r in seq]
    for choice in product(range(k + 1), repeat=len(others)):
        sets = list(base)
        for v, c in zip(others, choice):
            if c < k:
                sets[c] |= 1 << v
        if all(g.is_connected_mask(bm) for bm in sets) and all(
            _touch(g, sets[i], sets[(i + 1) % k]) for i in range(k)
        ):
            return MinorModel(seq, tuple(frozenset(bits(bm)) for bm in sets))
    return None


def _touch(g: Graph, am: int, bm: int) -> bool:
    return any(g.adj_mask(u) & bm for u in bits(am))


def brute_force_massed(g: Graph, x, lam) -> tuple[bool, bool]:
    """Check (M1) and (M2) by enumerating ALL separations (A, B) directly:
    each vertex goes to A only, B only, or both."""
    from fractions import Fraction

    lam = Fraction(lam)
    xm = g.mask(x)
    verts = g.vertices()
    rest = g.vertex_mask & ~xm
    m1 = Fraction(g.rho(rest)) > lam * rest.bit_count()
    order_bound = xm.bit_count()
    m2 = True
    for choice in product((0, 1, 2), repeat=len(verts)):
        am = bm = 0
        for v, c in zip(verts, choice):
            if c != 2:
                am |= 1 << v
            if c != 0:
                bm |= 1 << v
        if xm & am != xm:
            continue
        if (am & bm).bit_count() >= order_bound:
            continue
        a_only = am & ~bm
        b_only = bm & ~am
        if any(g.adj_mask(u) & b_only for u in bits(a_only)):
            continue
        if Fraction(g.rho(b_only)) > lam * b_only.bit_count():
            m2 = False
            break
    return m1, m2


def brute_force_has_separation(g: Graph, sources, sinks, max_order: int) -> bool:
    """True iff some vertex set S with |S| < max_order separates sources
    from sinks (S may absorb terminals)."""
    from itertools import combinations

    src = set(sources)
    snk = set(sinks)
    verts = g.vertices()
    for size in range(max_order):
        for S in combinations(verts, size):
            sm = mask_of(S)
            left_src = mask_of(src) & ~sm
            left_snk = mask_of(snk) & ~sm
            if src & snk - set(S):
                continue  # a shared terminal outside S cannot be separated
            reach = g.reach_mask(left_src, g.vertex_mask & ~sm)
            if not reach & left_snk:
                return True
    return False
