import pytest

from cyclelink.connectivity import is_massed
from cyclelink.errors import GenerationError, GraphError
from cyclelink.extremal import ExtremalCertificate, generate, recognize
from cyclelink.graph import Graph, complete_graph, cycle_graph
from cyclelink.minor import canonical_cyclic_orders, find_rooted_cycle_minor
from cyclelink.reducer import solve


def test_core_member_sizes(e0, e1, e2):
    assert e0[0].n == 7
    assert e1[0].n == 10
    assert e2[0].n == 13


def test_global_density_is_exact(e0, e1, e2):
    for g, roots in (e0, e1, e2):
        rest = g.vertex_mask & ~g.mask(roots)
        assert g.rho(rest) == 5 * rest.bit_count() + 1


def test_members_are_massed_but_not_linked(e0, e1, e2):
    for g, roots in (e0, e1, e2):
        assert is_massed(g, roots, 5).massed
        assert find_rooted_cycle_minor(g, roots) is None


def test_recognizer_returns_verified_certificate(e1):
    g, roots = e1
    cert = recognize(g, roots)
    assert cert is not None
    assert cert.verify(g)
    assert sorted(cert.apex_pair) == [6, 7]
    assert len(cert.components) == 1
    comp, idx = cert.components[0]
    assert len(comp) == 3
    # attachments are {a, b, x_idx, x_{idx+2}}
    order = cert.roots
    allowed = g.mask({*cert.apex_pair, order[idx], order[(idx + 2) % 5]})
    assert not g.nbr_mask(g.mask(comp)) & ~allowed


def test_recognizer_rejects_non_members():
    k7 = complete_graph(list(range(7)))
    assert recognize(k7, {0, 1, 2, 3, 4}) is None
    with pytest.raises(GraphError):
        recognize(k7, {0, 1, 2})


def test_recognizer_rejects_perturbed_member(e1):
    g, roots = e1
    # an extra root-component edge breaks the global density target
    broken = Graph(g.vertices(), [*g.edges(), (2, 8)])
    assert recognize(broken, roots) is None
    # deleting an apex-root edge breaks it the other way
    broken = Graph(g.vertices(), [e for e in g.edges() if e != (1, 6)])
    assert broken.m == g.m - 1
    assert recognize(broken, roots) is None


def test_recognizer_answers_for_the_given_order(e0, e1):
    # every order of e0 lacks a model; e1 has orders of both kinds
    outcomes = set()
    for g, roots in (e0, e1):
        for order in canonical_cyclic_orders(roots):
            cert = recognize(g, order)
            assert (cert is not None) == (find_rooted_cycle_minor(g, order) is None)
            outcomes.add(cert is None)
            if cert is None:
                continue
            assert cert.roots == order and cert.verify(g)
            solved = solve(g, order)
            assert isinstance(solved, ExtremalCertificate)
            assert solved.roots == order and solved.verify(g)
    assert outcomes == {True, False}


def test_certificate_verify_catches_tampering(e1):
    g, roots = e1
    cert = recognize(g, roots)
    # rotating the labeling desynchronizes the stored attachment indices
    rotated = ExtremalCertificate(
        cert.roots[1:] + cert.roots[:1], cert.apex_pair, cert.components
    )
    assert not rotated.verify(g)
    bad_apex = ExtremalCertificate(cert.roots, (1, 2), cert.components)
    assert not bad_apex.verify(g)
    # an adjacent apex pair that holds a root: x1 is not its own neighbour
    x1, a = cert.roots[0], cert.apex_pair[0]
    assert g.adj_mask(x1) >> a & 1
    assert not ExtremalCertificate(cert.roots, (x1, a), cert.components).verify(g)
    assert not ExtremalCertificate(cert.roots, (a, x1), cert.components).verify(g)
    bad_comp = ExtremalCertificate(cert.roots, cert.apex_pair, ())
    assert not bad_comp.verify(g)


def test_certificate_verify_rejects_malformed(e1):
    g, roots = e1
    cert = recognize(g, roots)
    (comp, idx), = cert.components
    assert idx == 0
    # unknown root and apex ids
    assert not ExtremalCertificate((1, 2, 3, 4, 99), cert.apex_pair, cert.components).verify(g)
    assert not ExtremalCertificate(cert.roots, (6, 99), cert.components).verify(g)
    assert not ExtremalCertificate(cert.roots, (6, 7, 8), cert.components).verify(g)
    # repeated root and apex ids
    assert not ExtremalCertificate((1, 2, 3, 4, 1), cert.apex_pair, cert.components).verify(g)
    assert not ExtremalCertificate(cert.roots, (6, 6), cert.components).verify(g)
    # attachment indices outside 0..4, including one that Python would wrap to 0
    for bad in (5, -5, -1, "0", 0.0):
        assert not ExtremalCertificate(cert.roots, cert.apex_pair, ((comp, bad),)).verify(g)


def test_certificate_json(e1):
    g, roots = e1
    cert = recognize(g, roots)
    d = cert.to_json_dict()
    assert set(d) == {"roots", "apex_pair", "components"}
    assert d["components"][0]["attachment_index"] in range(5)


def test_generate_bigger_components():
    g, roots = generate([(2, 5)])
    assert g.n == 12
    rest = g.vertex_mask & ~g.mask(roots)
    assert g.rho(rest) == 5 * rest.bit_count() + 1
    comps = g.components(rest & ~g.mask([6, 7]))
    assert len(comps) == 1 and comps[0].bit_count() == 5
    assert g.rho(comps[0]) == 5 * 5
    assert recognize(g, roots) is not None
    assert find_rooted_cycle_minor(g, roots) is None


def test_generate_multiple_components():
    # generate() itself runs the exhaustive "no" proof and raises
    # CertificateError if the canonical order has a model
    g, roots = generate([(1, 3), (3, 4), (5, 3)])
    assert recognize(g, roots) is not None


@pytest.mark.parametrize(
    "spec",
    [
        [(1, 3), (2, 3), (3, 3), (4, 4)],
        [(1, 4), (3, 4), (5, 5)],
        [(1, 4), (2, 4), (3, 4), (4, 4), (5, 3)],
    ],
)
def test_generate_20_to_26_vertex_members(spec):
    # the "no" proof inside generate() is the cost here: n = 20, 20, 26
    g, roots = generate(spec)
    assert g.n == 7 + sum(size for _, size in spec)
    assert recognize(g, roots) is not None


def test_generate_rejects_bad_specs():
    with pytest.raises(GenerationError):
        generate([(0, 3)])
    with pytest.raises(GenerationError):
        generate([(6, 3)])
    with pytest.raises(GenerationError):
        generate([(1, 2)])


def test_generate_deterministic():
    g1, _ = generate([(1, 3), (2, 3)])
    g2, _ = generate([(1, 3), (2, 3)])
    assert g1 == g2


def test_recognizer_needs_apex_pair():
    # a cycle has the wrong density and no dominating pair
    c7 = cycle_graph(list(range(7)))
    assert recognize(c7, {0, 1, 2, 3, 4}) is None
