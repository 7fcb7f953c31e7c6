"""OWL and DOT emission, run statistics, and their text rendering."""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from urllib.parse import quote

import pytest

from ontocrawl import ConceptHierarchy, CostLedger, CrawlConfig
from ontocrawl.errors import ExportError
from ontocrawl.export import (
    DEFAULT_BASE_IRI,
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    compute_stats,
    render_stats_text,
    stats_to_json_dict,
    to_dot,
    to_owl_rdfxml,
)
from ontocrawl.insertion import ORIGIN_INSERTION, ORIGIN_LISTING

import daggen
from owl_check import doc_matches_hierarchy, parse_owl
from support import (
    build_hierarchy,
    c2_taxonomy,
    full_run_stats,
    hierarchy_from_taxonomy,
    run_mock_crawl,
)


# ---------------------------------------------------------------------------
# OWL


def test_singleton_hierarchy_exports_one_class():
    h = ConceptHierarchy("Goats")
    xml = to_owl_rdfxml(h)
    assert xml.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    doc = parse_owl(xml)
    assert doc.base_iri == "http://example.org/hierarchy"
    assert doc.classes == ["Goats"]
    assert doc.subclass_of == set()
    doc_matches_hierarchy(doc, h)


def test_reference_taxonomy_round_trips_through_owl(goats):
    h = hierarchy_from_taxonomy(goats)
    doc = parse_owl(to_owl_rdfxml(h, base_iri="http://example.org/goats"))
    assert doc.base_iri == "http://example.org/goats"
    assert len(doc.classes) == 14
    assert len(doc.subclass_of) == 14
    assert doc.comments["Boer"] == goats.descriptions["Boer"]
    doc_matches_hierarchy(doc, h)


def test_synonym_names_become_equivalent_alias_classes():
    h = ConceptHierarchy("Livestock")
    dairy = h.add_concept("Dairy Goats", [h.seed_id], description="Kept for milk.")
    h.add_synonym_name(dairy, "Milk Goats")
    doc = parse_owl(to_owl_rdfxml(h))
    assert doc.classes == ["Livestock", "Dairy Goats"]
    assert doc.equivalents == {"Dairy Goats": {"Milk Goats"}}
    assert doc.aliases == ["Milk Goats"]
    doc_matches_hierarchy(doc, h)


def test_owl_iris_are_percent_encoded():
    h = ConceptHierarchy("Music")
    h.add_concept("AC/DC", [h.seed_id])
    h.add_concept("Mini. Goats", [h.seed_id])
    xml = to_owl_rdfxml(h)
    assert "#AC%2FDC" in xml
    assert "#Mini.%20Goats" in xml
    doc = parse_owl(xml)
    assert doc.classes == ["Music", "AC/DC", "Mini. Goats"]
    doc_matches_hierarchy(doc, h)


def test_owl_export_is_deterministic(goats):
    once = to_owl_rdfxml(hierarchy_from_taxonomy(goats))
    again = to_owl_rdfxml(hierarchy_from_taxonomy(goats))
    assert once == again


def test_owl_rejects_characters_xml_cannot_carry():
    h = ConceptHierarchy("Seed")
    h.add_concept("Bad\x07Name", [h.seed_id])
    with pytest.raises(ExportError, match="cannot carry"):
        to_owl_rdfxml(h)

    h2 = ConceptHierarchy("Seed")
    cid = h2.add_concept("Fine Name", [h2.seed_id])
    h2.concept(cid).description = "control \x01 character"
    with pytest.raises(ExportError, match="description"):
        to_owl_rdfxml(h2)


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_random_dags_round_trip_through_owl(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 40)
    edges = daggen.random_dag(rng, n)
    h = build_hierarchy(edges, n)
    doc_matches_hierarchy(parse_owl(to_owl_rdfxml(h)), h)


def _reference_owl_rdfxml(h: ConceptHierarchy, base_iri: str = DEFAULT_BASE_IRI) -> str:
    """Reference OWL document: the same axioms built as an ElementTree,
    indented and serialized by the standard library.  Comparing with it pins
    the writer's bytes to ElementTree's on every Python the suite runs on."""
    def iri(name: str) -> str:
        return f"{base_iri}#{quote(name, safe='')}"

    ET.register_namespace("rdf", RDF_NS)
    ET.register_namespace("rdfs", RDFS_NS)
    ET.register_namespace("owl", OWL_NS)
    root = ET.Element(f"{{{RDF_NS}}}RDF")
    onto = ET.SubElement(root, f"{{{OWL_NS}}}Ontology")
    onto.set(f"{{{RDF_NS}}}about", base_iri)

    for concept in h.concepts():
        cls = ET.SubElement(root, f"{{{OWL_NS}}}Class")
        cls.set(f"{{{RDF_NS}}}about", iri(concept.canonical_name))
        label = ET.SubElement(cls, f"{{{RDFS_NS}}}label")
        label.text = concept.canonical_name
        if concept.description:
            comment = ET.SubElement(cls, f"{{{RDFS_NS}}}comment")
            comment.text = concept.description
        for pid in sorted(h.direct_parents(concept.id)):
            sub = ET.SubElement(cls, f"{{{RDFS_NS}}}subClassOf")
            sub.set(f"{{{RDF_NS}}}resource", iri(h.concept(pid).canonical_name))
        for name in sorted(concept.synonym_names):
            eq = ET.SubElement(cls, f"{{{OWL_NS}}}equivalentClass")
            eq.set(f"{{{RDF_NS}}}resource", iri(name))

    for concept in h.concepts():
        for name in sorted(concept.synonym_names):
            alias = ET.SubElement(root, f"{{{OWL_NS}}}Class")
            alias.set(f"{{{RDF_NS}}}about", iri(name))
            label = ET.SubElement(alias, f"{{{RDFS_NS}}}label")
            label.text = name

    ET.indent(root, space="  ")
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


def _hostile_hierarchy() -> ConceptHierarchy:
    """Names, synonyms and descriptions full of characters XML escapes."""
    h = ConceptHierarchy("Tom & Jerry's <\"Goats\">")
    a = h.add_concept(
        "Ziegen & Böcke", [h.seed_id], description="a < b > c & \"d\" 'e'\n\tÉtude"
    )
    h.add_synonym_name(a, "<Chèvres> \"&\" 'Geiß'")
    h.add_synonym_name(a, "Cabras > ovejas")
    b = h.add_concept("Ωmega's \"goat\"", [h.seed_id], description=" \n\t ")
    c = h.add_concept("山羊 & <羊>", [a, b], description="\n&amp; ]]> <![CDATA[")
    h.add_synonym_name(c, "Ça & ça")
    return h


OWL_BASE_IRIS = (
    DEFAULT_BASE_IRI,
    'http://example.org/a&b"c<d>e',
    "http://example.org/x\ty\nz\rw'",
)


def _owl_reference_cases(goats):
    yield "goats crawl", run_mock_crawl(goats).hierarchy
    yield "goats taxonomy", hierarchy_from_taxonomy(goats)
    for i in range(20):
        yield f"c2-{i:02d}", hierarchy_from_taxonomy(c2_taxonomy(i))
    n = 400
    yield "daggen-400", build_hierarchy(daggen.random_dag(random.Random(1), n), n)
    yield "hostile", _hostile_hierarchy()


def test_owl_writer_matches_the_elementtree_reference(goats):
    for case, h in _owl_reference_cases(goats):
        for base in OWL_BASE_IRIS:
            want = _reference_owl_rdfxml(h, base)
            assert to_owl_rdfxml(h, base) == want, (case, base)


def test_hostile_names_round_trip_through_owl():
    h = _hostile_hierarchy()
    doc_matches_hierarchy(parse_owl(to_owl_rdfxml(h)), h)


@pytest.mark.parametrize(
    "name, description",
    [("B", "line one\r\nline two\rend"), ("B\rC", None), ("B\r\nC", "x\r")],
    ids=["cr-in-description", "cr-in-name", "crlf-in-name"],
)
def test_carriage_returns_in_text_survive_an_owl_round_trip(name, description):
    # A parser reads a raw CR or CRLF in text as LF, so text writes CR as &#13;.
    h = ConceptHierarchy("A")
    b = h.add_concept(name, [h.seed_id], description=description)
    h.add_synonym_name(b, "Alias\rB")
    doc_matches_hierarchy(parse_owl(to_owl_rdfxml(h)), h)


# ---------------------------------------------------------------------------
# DOT


def test_dot_output_shape_and_determinism(goats):
    h = hierarchy_from_taxonomy(goats)
    dot = to_dot(h)
    assert dot == to_dot(h)
    lines = dot.splitlines()
    assert lines[0] == "digraph hierarchy {"
    assert lines[-1] == "}"
    assert '  c0 [label="Goats"];' in lines
    assert "  c0 -> c1;" in lines
    # Edges come out sorted by (parent, child).
    def ids(ln: str) -> tuple[int, int]:
        left, _, right = ln.strip().rstrip(";").partition(" -> ")
        return int(left[1:]), int(right[1:])

    edge_lines = [ln for ln in lines if "->" in ln]
    assert edge_lines == sorted(edge_lines, key=ids)
    assert len(edge_lines) == 14


def test_dot_escapes_quotes_and_backslashes():
    h = ConceptHierarchy("Seed")
    cid = h.add_concept('Say "Cheese"', [h.seed_id])
    h.add_synonym_name(cid, "Back\\slash")
    dot = to_dot(h)
    assert dot.splitlines()[0] == "digraph hierarchy {"
    assert '[label="Say \\"Cheese\\"\\n(= Back\\\\slash)"];' in dot


# ---------------------------------------------------------------------------
# statistics


def test_stats_for_a_singleton_run():
    h = ConceptHierarchy("Goats")
    stats = compute_stats(h, CostLedger(), 0, config=CrawlConfig(seed_name="Goats"))
    assert stats.seed == "Goats"
    assert stats.exploration_depth is None and stats.ft == 20
    assert stats.n_concepts == 1
    assert stats.n_subsumptions == 0
    assert stats.prompts_per_concept == 0.0
    assert stats.depth_histogram == {0: 1}
    assert stats.outdegree_histogram == {0: 1}
    assert stats.concepts_at_or_below_cutoff == 1
    assert stats.concepts_above_cutoff == 0


def test_stats_counts_by_hand():
    h = ConceptHierarchy("S")
    a = h.add_concept("A", [h.seed_id], origin=ORIGIN_LISTING)
    b = h.add_concept("B", [h.seed_id], origin=ORIGIN_LISTING)
    h.add_concept("C", [a], origin=ORIGIN_LISTING)
    d = h.add_concept("D", [a], origin=ORIGIN_LISTING)
    h.add_subsumption(d, b, origin=ORIGIN_INSERTION)
    ledger = CostLedger(requests=10, dollars=0.1234)
    config = CrawlConfig(seed_name="S", exploration_depth=1, ft=20)
    stats = compute_stats(h, ledger, 3, config=config)
    assert stats.n_concepts == 5
    assert stats.n_dismissed == 3
    assert stats.n_subsumptions == 5
    assert stats.n_subsumptions_insertion == 1
    assert stats.prompts_per_concept == 2.0
    assert stats.cost_dollars == 0.12
    assert stats.depth_histogram == {0: 1, 1: 2, 2: 2}
    assert stats.outdegree_histogram == {0: 2, 1: 1, 2: 2}
    assert stats.max_outdegree == 2
    assert stats.avg_outdegree == 1.0
    assert stats.concepts_at_or_below_cutoff == 3
    assert stats.concepts_above_cutoff == 2
    # Every reduction edge is someone's outgoing child edge.
    assert sum(k * v for k, v in stats.outdegree_histogram.items()) == 5


def test_stats_text_rendering_golden():
    expected = "\n".join(
        [
            "Seed   Cutoff  ft  Concepts  Dismissed  Subsumptions  Ins.subs"
            "  Prompts/concept  Cost$  WithinCutoff  BeyondCutoff",
            "Goats  none    20  24        15         24            1       "
            "  22.25            0.11   24            0",
            "",
            "Concepts per depth:",
            "  depth 0: 1",
            "  depth 1: 7",
            "  depth 2: 14",
            "  depth 3: 2",
            "",
            "Concepts per outdegree (max 7, avg 1.00):",
            "  outdegree 0: 17",
            "  outdegree 1: 2",
            "  outdegree 2: 1",
            "  outdegree 4: 2",
            "  outdegree 5: 1",
            "  outdegree 7: 1",
        ]
    ) + "\n"
    assert render_stats_text(full_run_stats()) == expected


def test_stats_text_shows_a_numeric_cutoff():
    stats = full_run_stats()
    stats.exploration_depth = 3
    lines = render_stats_text(stats).splitlines()
    assert lines[1].split()[1] == "3"


def test_stats_json_dict_stringifies_histogram_keys():
    data = stats_to_json_dict(full_run_stats())
    assert data["depth_histogram"] == {"0": 1, "1": 7, "2": 14, "3": 2}
    assert data["outdegree_histogram"]["7"] == 1
    assert data["seed"] == "Goats"
    assert data["exploration_depth"] is None
    assert data["prompts_per_concept"] == 22.25
    assert set(data) == {
        "seed",
        "exploration_depth",
        "ft",
        "n_concepts",
        "n_dismissed",
        "n_subsumptions",
        "n_subsumptions_insertion",
        "prompts_per_concept",
        "cost_dollars",
        "concepts_at_or_below_cutoff",
        "concepts_above_cutoff",
        "depth_histogram",
        "outdegree_histogram",
        "max_outdegree",
        "avg_outdegree",
    }
