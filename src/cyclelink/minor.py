"""Exact decision of ordered rooted cycle minors, with certificates.

A rooted C_k-minor of (G, x1..xk) is a family of pairwise disjoint
connected branch sets X1..Xk with xi in Xi and an edge between
consecutive sets (cyclically).  The search grows branch sets by routing
paths through unused vertices, one consecutive-pair demand at a time,
and is exhaustive: returning None proves non-containment.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import CertificateError, GraphError, UnsupportedError
from .graph import Graph, bits

ENGINE_LIMIT = 8  # max number of roots the search accepts


@dataclass(frozen=True)
class MinorModel:
    """Branch sets witnessing a rooted cycle minor; a checkable certificate."""

    roots: tuple[int, ...]
    branch_sets: tuple[frozenset[int], ...]

    def to_json_dict(self) -> dict:
        return {
            "roots": list(self.roots),
            "branch_sets": [sorted(bs) for bs in self.branch_sets],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MinorModel":
        return cls(tuple(d["roots"]), tuple(frozenset(bs) for bs in d["branch_sets"]))


@dataclass(frozen=True)
class ModelCheck:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_model(g: Graph, seq: tuple[int, ...], m: MinorModel) -> ModelCheck:
    """Check every MinorModel invariant; name the first violated clause."""
    k = len(seq)
    if tuple(m.roots) != tuple(seq):
        return ModelCheck(False, "model roots do not match the requested sequence")
    if len(m.branch_sets) != k:
        return ModelCheck(False, f"expected {k} branch sets, got {len(m.branch_sets)}")
    masks = []
    for i, bs in enumerate(m.branch_sets):
        try:
            masks.append(g.mask(bs))
        except GraphError:
            return ModelCheck(False, f"branch set {i} contains unknown vertices")
    return _check_masks(g, seq, masks)


def _check_masks(g: Graph, seq: tuple[int, ...], masks: list[int]) -> ModelCheck:
    """The model invariants on branch-set masks of known vertices: each
    set holds its root and is connected, the sets are pairwise disjoint,
    and consecutive sets (cyclically) touch."""
    k = len(seq)
    for i, bm in enumerate(masks):
        if not (bm >> seq[i]) & 1:
            return ModelCheck(False, f"root {seq[i]} not in branch set {i}")
        if not g.is_connected_mask(bm):
            return ModelCheck(False, f"branch set {i} is not connected")
    for i in range(k):
        for j in range(i + 1, k):
            if masks[i] & masks[j]:
                return ModelCheck(False, f"branch sets {i} and {j} overlap")
    for i in range(k):
        j = (i + 1) % k
        if not g.touches(masks[i], masks[j]):
            return ModelCheck(False, f"no edge between branch sets {i} and {j}")
    return ModelCheck(True)


def path_exists(g: Graph, u: int, v: int) -> bool:
    g.mask((u, v))
    return bool(g.reach_mask(1 << u, g.vertex_mask) >> v & 1)


def find_rooted_cycle_minor(g: Graph, seq) -> MinorModel | None:
    """Exact search for a C_k-minor rooted at seq (3 <= k <= 8).

    Returns an inclusion-minimal verified model, or None as a proof of
    non-containment.
    """
    seq = tuple(seq)
    k = len(seq)
    if k > ENGINE_LIMIT:
        raise UnsupportedError(f"engine supports at most {ENGINE_LIMIT} roots, got {k}")
    if k < 3:
        raise GraphError("need at least 3 roots; use path_exists for pairs")
    free = g.vertex_mask & ~g.mask(seq)
    sets = [1 << r for r in seq]
    if not _demands_feasible(g, sets, free, range(k)):
        return None
    found = _search(g, sets, free, 0, k)
    if found is None:
        return None
    masks = _minimize(g, seq, found)
    check = _check_masks(g, seq, masks)
    if not check:
        raise CertificateError(f"engine model fails verification: {check.reason}")
    return MinorModel(seq, tuple(frozenset(bits(bm)) for bm in masks))


def _search(g: Graph, sets: list[int], free: int, d: int, k: int) -> list[int] | None:
    """Route demands d..k-1 (X_i to X_{i+1}, cyclically); exhaustive.

    A model exists below a state iff this returns one.  Four prunings
    skip only children that cannot succeed, so the first model found is
    the one the unpruned search finds:

    - *Dominated cuts.*  For d >= 1, X_d is never read again once demand
      d is routed: later demands read X_{d+1}..X_{k-1} and X_0 only.  A
      model reached after giving a prefix of the path to X_d stays a
      model when that prefix joins X_{d+1} instead (the prefix runs from
      a neighbour of X_d to the rest of the path, so X_{d+1} stays
      connected and touches X_d), so the cut that gives the whole path
      to X_{d+1} dominates, and it is the one tried first.  At d = 0
      every cut is kept, because demand (k-1, 0) reads X_0 again.
    - *Failed children.*  Given this state, a child is fixed by the
      vertices the cut gives X_i (``head``) and the path's vertex set
      (``pmask``); the order of the path is not read.  A (head, pmask)
      pair that was tried once has failed, so it is not tried again.
      Different states never share a child (with the whole path given
      to X_{d+1}, each set is recoverable from the child), so a table
      over whole states across the call would find nothing more.
    - *Dominated children.*  Below a depth-0 child, the search takes
      vertices only from ``left`` (``free`` minus the path) and reads X_0
      and X_1 only through their neighbourhoods in ``out``, the vertices
      outside X_0 and X_1.  So the child's key is (left, N(X_0) & out,
      N(X_1) & out), and a child is skipped when an earlier failed child
      A covers it: each part of A's key contains the child's.  Suppose
      the skipped child B had a model, and put A's X_0 and X_1 in place
      of B's.  The result is a model below A: the sets stay disjoint,
      because B's left lies in A's; A's X_0 touches A's X_1 by
      construction; and every other edge of the model at B's X_0 or X_1
      ends in B's out, at a vertex of B's N(X_0) & out or N(X_1) & out,
      so A's X_0 or X_1 has that edge too.  A has no model, so B has
      none.  Only depth 0 keeps such a table: at d >= 1 a path search
      almost never yields two children (it mostly yields none), so the
      keys would cost without skipping anything.
    - *Fixed demands.*  Routing demand d grows X_{d+1} only, and at d = 0
      also X_0.  Every other open demand i (2..k-2 at d = 0, d+2..k-1 at
      d >= 1) joins two sets the path leaves alone, and its route must
      use ``free`` minus the path, which only shrinks as the path grows.
      Once such a demand cannot be routed, no extension of the path
      passes ``_demands_feasible``, so ``_paths_between`` takes these
      demands as guards and drops the branch there; a child then checks
      only the demands on the sets that grew (``grown``).  Each guard
      keeps one route (a witness) and is re-routed only when the path
      takes a vertex of it: a route that avoids the new vertex is still
      a route, so the guard drops a branch exactly when no route is
      left, the same branches as re-checking every guard on every
      vertex.

    Every state this is called with has all its open demands routable
    through ``free``.  A demand i that has no route at some state has
    none in any state below it: below, X_i and X_{i+1} gain only free
    vertices connected to them, so if they touched below, the gained
    vertices would form a route at this state.  So each state is checked
    once, where it is made: ``find_rooted_cycle_minor`` checks the
    starting state, a parent checks the demands its child grew, and the
    path guards cover the rest.  When X_d already touches X_{d+1}, the
    state passes on to depth d + 1 unchanged.
    """
    if d == k:
        return list(sets)
    i, j = d, (d + 1) % k
    if g.touches(sets[i], sets[j]):
        return _search(g, sets, free, d + 1, k)
    # fixed demands (see the docstring) become guards of the path search
    grown = (1, k - 1) if d == 0 else range(d + 1, min(d + 2, k))
    guards = []
    for f in range(2, k - 1) if d == 0 else range(d + 2, k):
        near = g.nbr_mask(sets[(f + 1) % k])
        if not sets[f] & near:
            guards.append((g.nbr_mask(sets[f]), near))
    # route a path from X_i to X_j through free vertices: at d = 0 any
    # prefix of it may join X_i, at d >= 1 all of it joins X_j
    tried = set()
    failed = []  # keys of the failed children (d = 0 only)
    for heads in _paths_between(g, sets[i], sets[j], free, guards, distinct=d > 0):
        pmask = heads[-1]
        for head in (0, *heads) if d == 0 else (0,):
            if (head, pmask) in tried:
                continue
            tried.add((head, pmask))
            rest = pmask & ~head
            left = free & ~pmask
            sets[i] |= head
            sets[j] |= rest
            # dominated children (see the docstring); the key is built
            # only to compare with, or to record, a failed child
            key = _child_key(g, sets, left) if failed else None
            if key is None or not _covered(key, failed):
                if _demands_feasible(g, sets, left, grown):
                    res = _search(g, sets, left, d + 1, k)
                    if res is not None:
                        return res
                if d == 0:
                    failed.append(key or _child_key(g, sets, left))
            sets[i] &= ~head
            sets[j] &= ~rest
    return None


def _child_key(g: Graph, sets: list[int], left: int) -> tuple[int, int, int]:
    """What the search below a depth-0 child reads of X_0 and X_1: the
    free vertices ``left`` and the neighbourhoods of X_0 and X_1 outside
    both sets."""
    x0, x1 = sets[0], sets[1]
    return left, g.nbr_mask(x0) & ~x1, g.nbr_mask(x1) & ~x0


def _covered(key: tuple[int, int, int], keys: list[tuple[int, int, int]]) -> bool:
    """Some key in ``keys`` contains ``key`` part by part."""
    left, n0, n1 = key
    return any(not (left & ~a or n0 & ~b or n1 & ~c) for a, b, c in keys)


def _paths_between(
    g: Graph,
    am: int,
    bm: int,
    free: int,
    guards: Sequence[tuple[int, int]] = (),
    distinct: bool = False,
):
    """Yield the simple a-set..b-set paths through free vertices, each as
    its list of prefix masks: the i-th mask holds the path's first i + 1
    vertices, and the last is the path's vertex set.

    Paths may be long; direct edges are the caller's fast path and never
    reach here.  Deterministic: vertices explored in ascending id.  The
    depth-first search keeps one explicit stack, so a long path cannot
    hit the recursion limit.  It holds one frame for the a-set and one
    per path vertex: the vertex's unexplored neighbours (lowest id taken
    first), the path mask up to it, and the guards' witnesses.  ``left``
    is ``free`` minus the current path.

    ``guards`` are (source, target) masks of demands the path must leave
    routable: a path is yielded or extended only while, for each guard,
    some route inside ``left`` joins ``source`` to ``target``.  ``left``
    only shrinks as the path grows, so a guard that fails stays failed on
    every extension, and the search drops that branch whole; the paths
    that are yielded come in the same order as without guards.  Each
    guard keeps a *witness*, one shortest route, per frame.  When the
    path takes v, only the guards whose witness contains v are re-routed
    around it: a witness that avoids v is still a route once v is gone,
    so every other guard still holds, and a guard fails exactly when its
    re-route finds none.

    With ``distinct`` the search never re-enters a (last vertex, path
    set) state it has explored: every path through it has a vertex set
    already yielded, so a caller that reads only the sets skips nothing
    new, and the first path with each set comes in the same order.
    """
    witnesses = []
    for src, near in guards:
        witnesses.append(g.path_mask(src, free, near))
        if not witnesses[-1]:
            return
    # a frame: [unexplored neighbours, path mask, witnesses, their union]
    stack = [[g.nbr_mask(am) & free, 0, witnesses, reduce(or_, witnesses, 0)]]
    explored = set()
    while stack:
        top = stack[-1]
        todo = top[0]
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        top[0] = todo ^ low
        pmask = top[1] | low
        if distinct:
            if (low, pmask) in explored:
                continue
            explored.add((low, pmask))
        left = free & ~pmask
        witnesses, cover = top[2], top[3]
        if cover & low:
            witnesses = _reroute(g, guards, witnesses, low, left)
            if witnesses is None:
                continue
            cover = reduce(or_, witnesses)
        nbrs = g.adj_mask(low.bit_length() - 1)
        stack.append([nbrs & left, pmask, witnesses, cover])
        if nbrs & bm:
            yield [f[1] for f in stack[1:]]


def _reroute(
    g: Graph, guards: Sequence[tuple[int, int]], witnesses: list[int], low: int, left: int
) -> list[int] | None:
    """The guards' witnesses once the path takes the vertex ``low`` (a
    one-bit mask): a witness through it is replaced by a shortest route
    inside ``left``, the free vertices without it.  None when some guard
    has no route left."""
    kept = []
    for (src, near), w in zip(guards, witnesses):
        if w & low:
            w = g.path_mask(src, left, near)
            if not w:
                return None
        kept.append(w)
    return kept


def _demands_feasible(g: Graph, sets: list[int], free: int, demands) -> bool:
    """Fail fast: each demand i in ``demands`` (X_i to X_{i+1},
    cyclically) must still be routable through free.

    X_i and X_j are disjoint, so X_i touches X_j iff it meets N(X_j),
    and a route exists iff some path inside free joins N(X_i) to N(X_j).
    """
    k = len(sets)
    for i in demands:
        near = g.nbr_mask(sets[(i + 1) % k])
        if sets[i] & near:
            continue
        if not g.path_mask(g.nbr_mask(sets[i]), free, near):
            return False
    return True


def _minimize(g: Graph, seq: tuple[int, ...], masks: list[int]) -> list[int]:
    """Drop removable vertices so emitted certificates are inclusion-minimal.

    A vertex is removable when the rest of its branch set stays connected
    and still touches both neighbouring sets.  Each branch set is
    connected, so the rest stays connected iff the vertex is not a cut
    vertex of the set; the cut vertices are found once, on the first
    vertex that keeps both touches, and again after each removal.
    """
    k = len(masks)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            cut = None
            for v in bits(masks[i] & ~(1 << seq[i])):
                trial = masks[i] & ~(1 << v)
                if not (g.touches(trial, masks[i - 1]) and g.touches(trial, masks[(i + 1) % k])):
                    continue
                if cut is None:
                    cut = _cut_vertices(g, masks[i])
                if not cut >> v & 1:
                    masks[i] = trial
                    cut = None
                    changed = True
    return masks


def _cut_vertices(g: Graph, xm: int) -> int:
    """Mask of the cut vertices of the connected subgraph induced by xm.

    One lowpoint depth-first search (Hopcroft-Tarjan), with an explicit
    stack of neighbour iterators so a long set cannot hit the recursion
    limit.
    """
    root = (xm & -xm).bit_length() - 1
    disc = {root: 0}
    low = {root: 0}
    stack = [(root, -1, bits(g.adj_mask(root) & xm))]
    cut = 0
    root_children = 0
    while stack:
        v, parent, nbrs = stack[-1]
        w = next(nbrs, None)
        if w is None:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent >= 0:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    cut |= 1 << parent
            continue
        if w in disc:
            if w != parent:
                low[v] = min(low[v], disc[w])
        else:
            disc[w] = low[w] = len(disc)
            stack.append((w, v, bits(g.adj_mask(w) & xm)))
    if root_children > 1:
        cut |= 1 << root
    return cut


# cyclic order canonicalization

def canonical_cyclic_orders(roots) -> list[tuple[int, ...]]:
    """All cyclic orders of roots up to rotation and reflection.

    Canonical form: smallest root first; direction fixed so the second
    entry is smaller than the last.  (k-1)!/2 orders for k >= 3.
    """
    import itertools

    rs = sorted(roots)
    if len(rs) <= 2:
        return [tuple(rs)]
    first, rest = rs[0], rs[1:]
    out = []
    for perm in itertools.permutations(rest):
        if perm[0] < perm[-1]:
            out.append((first,) + perm)
    return out


@dataclass(frozen=True)
class CycleLinkReport:
    linked: bool
    witnesses: dict  # canonical order -> MinorModel
    failing_order: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "linked": self.linked,
            "witnesses": {
                ",".join(map(str, order)): m.to_json_dict()
                for order, m in self.witnesses.items()
            },
            "failing_order": list(self.failing_order) if self.failing_order else None,
        }


def is_cycle_linked(g: Graph, x) -> CycleLinkReport:
    """Test the cycle-linked predicate for a root set.

    For |x| >= 3 every canonical cyclic order must admit a rooted cycle
    minor; for |x| in {1, 2} this reduces to path existence.
    """
    xs = sorted(x)
    if not g.mask(xs):
        raise GraphError("root set is empty")
    if len(xs) > ENGINE_LIMIT:
        raise UnsupportedError(f"engine supports at most {ENGINE_LIMIT} roots, got {len(xs)}")
    if len(xs) == 1:
        return CycleLinkReport(True, {})
    if len(xs) == 2:
        ok = path_exists(g, xs[0], xs[1])
        return CycleLinkReport(ok, {}, None if ok else tuple(xs))
    witnesses = {}
    for order in canonical_cyclic_orders(xs):
        model = find_rooted_cycle_minor(g, order)
        if model is None:
            return CycleLinkReport(False, witnesses, order)
        witnesses[order] = model
    return CycleLinkReport(True, witnesses)
