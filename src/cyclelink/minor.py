"""Exact decision of ordered rooted cycle minors, with certificates.

A rooted C_k-minor of (G, x1..xk) is a family of pairwise disjoint
connected branch sets X1..Xk with xi in Xi and an edge between
consecutive sets (cyclically).  The search grows branch sets by routing
paths through unused vertices, one consecutive-pair demand at a time,
and is exhaustive: returning None proves non-containment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, GraphError, UnsupportedError
from .graph import Graph, bits, mask_of

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
            bm = g.mask(bs)
        except GraphError:
            return ModelCheck(False, f"branch set {i} contains unknown vertices")
        masks.append(bm)
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
    _validate_roots(g, (u, v))
    return bool(g.reach_mask(1 << u, g.vertex_mask) >> v & 1)


def _validate_roots(g: Graph, seq) -> int:
    """The mask of ``seq``; its ids must be known vertices and distinct."""
    if (xm := g.mask(seq)).bit_count() != len(seq):
        raise GraphError(f"roots must be distinct: {seq}")
    return xm


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
    free = g.vertex_mask & ~_validate_roots(g, seq)
    sets = [1 << r for r in seq]
    found = _search(g, sets, free, 0, k)
    if found is None:
        return None
    model = MinorModel(seq, tuple(frozenset(bits(bm)) for bm in found))
    model = _minimize(g, seq, model)
    check = verify_model(g, seq, model)
    if not check:
        raise CertificateError(f"engine model fails verification: {check.reason}")
    return model


def _search(g: Graph, sets: list[int], free: int, d: int, k: int) -> list[int] | None:
    if d == k:
        return list(sets)
    i, j = d, (d + 1) % k
    if g.touches(sets[i], sets[j]):
        if _demands_feasible(g, sets, free, d + 1, k):
            return _search(g, sets, free, d + 1, k)
        return None
    # route a path from sets[i] to sets[j] through free vertices; any
    # prefix of the interior may be absorbed into X_i, the rest into X_j
    for path in _paths_between(g, sets[i], sets[j], free):
        pmask = mask_of(path)
        for cut in range(len(path) + 1):
            head = mask_of(path[:cut])
            sets[i] |= head
            sets[j] |= pmask & ~head
            if _demands_feasible(g, sets, free & ~pmask, d + 1, k):
                res = _search(g, sets, free & ~pmask, d + 1, k)
                if res is not None:
                    return res
            sets[i] &= ~head
            sets[j] &= ~(pmask & ~head)
    return None


def _paths_between(g: Graph, am: int, bm: int, free: int):
    """Yield interiors of simple a-set..b-set paths through free vertices.

    Each yielded list is the ordered interior (possibly long); direct
    edges are the caller's fast path and never reach here.  Deterministic:
    vertices explored in ascending id.  The depth-first search keeps an
    explicit stack (one iterator per depth), so a long path cannot hit
    the recursion limit; ``left`` is ``free`` minus the current path.
    """
    path: list[int] = []
    frontier = [bits(g.nbr_mask(am) & free)]
    left = free
    while frontier:
        v = next(frontier[-1], None)
        if v is None:
            frontier.pop()
            if path:
                left |= 1 << path.pop()
            continue
        path.append(v)
        left &= ~(1 << v)
        nbrs = g.adj_mask(v)
        if nbrs & bm:
            yield list(path)
        frontier.append(bits(nbrs & left))


def _demands_feasible(g: Graph, sets: list[int], free: int, d: int, k: int) -> bool:
    """Fail fast: every open demand must still be routable through free."""
    for i in range(d, k):
        j = (i + 1) % k
        if g.touches(sets[i], sets[j]):
            continue
        region = g.reach_mask(g.nbr_mask(sets[i]) & free, free) | sets[i]
        if not g.touches(region, sets[j]):
            return False
    return True


def _minimize(g: Graph, seq: tuple[int, ...], m: MinorModel) -> MinorModel:
    """Drop removable vertices so emitted certificates are inclusion-minimal."""
    masks = [mask_of(bs) for bs in m.branch_sets]
    k = len(masks)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            for v in sorted(bits(masks[i] & ~(1 << seq[i]))):
                trial = masks[i] & ~(1 << v)
                if not g.is_connected_mask(trial):
                    continue
                left = (i - 1) % k
                right = (i + 1) % k
                if g.touches(trial, masks[left]) and g.touches(trial, masks[right]):
                    masks[i] = trial
                    changed = True
    return MinorModel(seq, tuple(frozenset(bits(bm)) for bm in masks))


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
    _validate_roots(g, xs)
    if not xs:
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
