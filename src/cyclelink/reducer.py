"""Certifying solver for rooted C5-minors on 5-massed instances.

Given (G, x1..xk) with 3 <= k <= 5 and (G, X) 5-massed, solve() runs the
exact engine.  A "yes" is the engine's minimized model; a "no" with k = 5
must be a member of the tight obstruction family labelled by that same
order, so it is answered with an ExtremalCertificate whose roots are
x1..x5 as given.  Anything else contradicts the dichotomy and is
surfaced as a replayable falsifier.  Each answer is checked once, where
it is made: the engine checks its model, recognize() returns only a
certificate that passed verify(), and is_massed() checks its violator.
"""

from __future__ import annotations

from .connectivity import is_massed
from .errors import FalsifierError, GraphError, NotMassedError
from .extremal import recognize
from .graph import Graph
from .io6 import graph6_ids, to_graph6
from .minor import find_rooted_cycle_minor


def solve(g: Graph, seq):
    """Find a verified MinorModel for (g, seq) or an ExtremalCertificate
    labelled by the order seq itself.

    Raises NotMassedError when (g, set(seq)) is not 5-massed, and
    FalsifierError if neither outcome can be produced for seq (which
    would contradict the dichotomy the solver implements).
    """
    seq = tuple(seq)
    if not 3 <= len(seq) <= 5:
        raise GraphError(f"solver supports 3..5 roots, got {len(seq)}")
    report = is_massed(g, seq, 5)
    if not report:
        raise NotMassedError(report)
    model = find_rooted_cycle_minor(g, seq)
    if model is not None:
        return model
    cert = recognize(g, seq) if len(seq) == 5 else None
    if cert is None:
        raise FalsifierError({"graph6": to_graph6(g), "order": graph6_ids(g, seq)})
    return cert
