"""Certifying solver for rooted C5-minors on 5-massed instances.

Given (G, x1..xk) with 3 <= k <= 5 and (G, X) 5-massed, solve() runs the
exact engine.  A "yes" is the engine's minimized model; a "no" with k = 5
must be a member of the tight obstruction family labelled by that same
order, so it is answered with an ExtremalCertificate whose roots are
x1..x5 as given.  Anything else contradicts the dichotomy and is
surfaced as a replayable falsifier.  Every answer is re-verified on the
input graph before return.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .connectivity import is_massed
from .errors import CertificateError, FalsifierError, GraphError, NotMassedError
from .extremal import recognize
from .graph import Graph, bits
from .io6 import to_graph6
from .minor import _validate_roots, find_rooted_cycle_minor, verify_model


@dataclass
class ReductionTrace:
    """Audit log of the solver's steps; serializes to JSON for --explain."""

    steps: list[dict] = field(default_factory=list)

    def add(self, **step) -> None:
        self.steps.append(step)


def solve(g: Graph, seq, trace: ReductionTrace | None = None):
    """Find a verified MinorModel for (g, seq) or an ExtremalCertificate
    labelled by the order seq itself.

    Raises NotMassedError when (g, set(seq)) is not 5-massed, and
    FalsifierError if neither outcome can be produced for seq (which
    would contradict the dichotomy the solver implements).
    """
    seq = tuple(seq)
    if not 3 <= len(seq) <= 5:
        raise GraphError(f"solver supports 3..5 roots, got {len(seq)}")
    _validate_roots(g, seq)
    if trace is None:
        trace = ReductionTrace()
    report = is_massed(g, seq, 5)
    if not report:
        raise NotMassedError(report)

    trace.add(rule="fallback-search")
    model = find_rooted_cycle_minor(g, seq)
    if model is not None:
        check = verify_model(g, seq, model)
        if not check:
            raise CertificateError(f"solver model fails verification: {check.reason}")
        return model
    cert = recognize(g, seq) if len(seq) == 5 else None
    if cert is None:
        artifact = {"graph6": to_graph6(g), "order": list(seq)}
        trace.add(rule="falsifier", **artifact)
        raise FalsifierError(artifact)
    common = g.vertex_mask
    for x in seq:
        common &= g.adj_mask(x)
    trace.add(rule="certificate", common_root_neighbors=list(bits(common)))
    if not cert.verify(g):
        raise CertificateError("extremal certificate fails verification")
    return cert
