"""Generator and recognizer for the tight obstruction family.

These are the instances that are 5-massed yet admit no rooted C5-minor
for some order of the roots: five pairwise "cyclically nonadjacent"
roots, an adjacent apex pair {a, b} dominating all roots, and tight
components hanging off {a, b, x_i, x_{i+2}} with density exactly 5|C|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, GenerationError, GraphError
from .graph import Graph, bits
from .minor import find_rooted_cycle_minor


@dataclass(frozen=True)
class ExtremalCertificate:
    """Machine-checked witness of the obstruction structure."""

    roots: tuple[int, ...]           # cyclic labeling x1..x5
    apex_pair: tuple[int, int]       # (a, b), a < b
    components: tuple[tuple[frozenset[int], int], ...]  # (C, attachment index i)

    def to_json_dict(self) -> dict:
        return {
            "roots": list(self.roots),
            "apex_pair": list(self.apex_pair),
            "components": [
                {"vertices": sorted(c), "attachment_index": i}
                for c, i in self.components
            ],
        }

    def verify(self, g: Graph) -> bool:
        """Re-check every certificate invariant against the host graph; a
        malformed certificate (unknown or repeated ids, an index outside
        0..4) fails."""
        xs = self.roots
        if len(xs) != 5 or len(self.apex_pair) != 2:
            return False
        if not all(type(i) is int and 0 <= i < 5 for _, i in self.components):
            return False
        a, b = self.apex_pair
        try:
            xm, apex = g.mask(xs), g.mask((a, b))
            comps = [g.mask(c) for c, _ in self.components]
        except GraphError:
            return False
        if not g.adj_mask(a) >> b & 1:
            return False
        for i in range(5):
            nbrs = g.adj_mask(xs[i])
            if nbrs >> xs[(i + 1) % 5] & 1 or nbrs & apex != apex:
                return False
        rest = g.vertex_mask & ~xm
        if sorted(comps) != sorted(g.components(rest & ~apex)):
            return False
        for cm, (_, i) in zip(comps, self.components):
            if g.rho(cm) != 5 * cm.bit_count() or g.nbr_mask(cm) & ~_attachments(xs, apex, i):
                return False
        return g.rho(rest) == 5 * rest.bit_count() + 1


def _attachments(xs, apex: int, i: int) -> int:
    """Mask of {a, b, x_i, x_{i+2}}: where component i may attach."""
    return apex | 1 << xs[i] | 1 << xs[(i + 2) % 5]


def recognize(g: Graph, seq) -> ExtremalCertificate | None:
    """Recognize (g, seq) as a family member labelled by the cyclic order
    ``seq`` = x1..x5 itself.

    Each adjacent apex pair dominating the roots is tried, and a candidate
    is returned only if its verify() passes.  The certificate's roots are
    ``seq``: a rotation or reflection of the member's labelling fits, and
    any other order of the same roots gives None.
    """
    xs = tuple(seq)
    if len(xs) != 5:
        raise GraphError(f"recognizer needs exactly 5 roots, got {len(xs)}")
    xm = g.mask(xs)
    rest = g.vertex_mask & ~xm
    if g.rho(rest) != 5 * rest.bit_count() + 1:
        return None
    # apex candidates: adjacent pairs outside X dominating every root
    dominating = [v for v in bits(rest) if g.adj_mask(v) & xm == xm]
    for i, a in enumerate(dominating):
        for b in dominating[i + 1:]:
            if not g.adj_mask(a) >> b & 1:
                continue
            apex = 1 << a | 1 << b
            comps = g.components(rest & ~apex)
            # first attachment index that fits; 0 when none does, which
            # verify() then rejects
            fits = [
                next((i for i in range(5) if not g.nbr_mask(c) & ~_attachments(xs, apex, i)), 0)
                for c in comps
            ]
            cert = ExtremalCertificate(
                xs, (a, b), tuple((frozenset(bits(c)), i) for c, i in zip(comps, fits))
            )
            if cert.verify(g):
                return cert
    return None


# the apex pair (a, b) of every generated member; the roots are 1..5
APEX_PAIR = (6, 7)


def generate(component_spec):
    """Build a family member from a list of (attachment index, size) pairs.

    Vertices: roots 1..5, apexes (a, b) = APEX_PAIR, then component vertices.
    Each component starts as a triangle fully joined to its four
    attachments (density exactly 5|C|); extra vertices keep the density
    tight by adding exactly five edges each.  The result must pass the
    recognizer (which re-checks both densities), and the exact engine
    must confirm the canonical order has no C5-minor; otherwise
    CertificateError is raised.  A bad spec raises GenerationError.

    Returns (graph, roots).
    """
    roots = (1, 2, 3, 4, 5)
    a, b = APEX_PAIR
    edges = [(a, b)]
    edges += [(a, r) for r in roots] + [(b, r) for r in roots]
    nxt = 8
    for entry in component_spec:
        i, size = entry
        if not 1 <= i <= 5:
            raise GenerationError(f"attachment index out of range: {i}")
        if size < 3:
            raise GenerationError(
                f"tight component needs at least 3 vertices, got {size}"
            )
        attach = [a, b, roots[i - 1], roots[(i + 1) % 5]]
        core = [nxt, nxt + 1, nxt + 2]
        nxt += 3
        edges += [(core[0], core[1]), (core[0], core[2]), (core[1], core[2])]
        edges += [(c, t) for c in core for t in attach]
        for _ in range(size - 3):
            w = nxt
            nxt += 1
            # five new edges keep rho(C) = 5|C| exact
            edges += [(w, core[0]), (w, core[1]), (w, core[2]), (w, a), (w, b)]
            core.append(w)
    g = Graph(roots + (a, b), edges)

    # every realization is re-checked; a failure is a fault, not a bad spec
    if recognize(g, roots) is None:
        raise CertificateError("generated instance fails the recognizer")
    if find_rooted_cycle_minor(g, roots) is not None:
        from .io6 import to_graph6

        raise CertificateError(
            "generated instance admits a C5-minor for the canonical order; "
            f"archived graph6: {to_graph6(g)}"
        )
    return g, roots
