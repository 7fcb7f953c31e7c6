"""Serialization of finished hierarchies: OWL RDF/XML, DOT, run statistics.

Output is deterministic: concepts are emitted in id order, edges and synonym
names sorted, so identical hierarchies yield byte-identical documents.
"""

from __future__ import annotations

import json
import logging
import xml.etree.ElementTree as ET
from dataclasses import fields
from urllib.parse import quote

from .crawler import CrawlConfig, CrawlStats
from .errors import ExportError
from .hierarchy import ConceptHierarchy
from .insertion import ORIGIN_INSERTION
from .llm_backend import CostLedger

logger = logging.getLogger(__name__)

DEFAULT_BASE_IRI = "http://example.org/hierarchy"

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

_XML_BAD = [chr(i) for i in range(0x20) if chr(i) not in "\t\n\r"]


def _iri_for(base: str, name: str) -> str:
    for ch in _XML_BAD:
        if ch in name:
            raise ExportError(f"name {name!r} contains characters XML cannot carry")
    return f"{base}#{quote(name, safe='')}"


def _check_text(owner: str, text: str) -> str:
    for ch in _XML_BAD:
        if ch in text:
            raise ExportError(
                f"description of {owner!r} contains characters XML cannot carry"
            )
    return text


def to_owl_rdfxml(h: ConceptHierarchy, base_iri: str = DEFAULT_BASE_IRI) -> str:
    """One owl:Class per concept; subclass axioms along the reduction; one
    equivalent-class axiom (and alias class) per synonym name."""
    ET.register_namespace("rdf", RDF_NS)
    ET.register_namespace("rdfs", RDFS_NS)
    ET.register_namespace("owl", OWL_NS)
    root = ET.Element(f"{{{RDF_NS}}}RDF")
    onto = ET.SubElement(root, f"{{{OWL_NS}}}Ontology")
    onto.set(f"{{{RDF_NS}}}about", base_iri)

    for concept in h.concepts():
        cls = ET.SubElement(root, f"{{{OWL_NS}}}Class")
        cls.set(f"{{{RDF_NS}}}about", _iri_for(base_iri, concept.canonical_name))
        label = ET.SubElement(cls, f"{{{RDFS_NS}}}label")
        label.text = concept.canonical_name
        if concept.description:
            comment = ET.SubElement(cls, f"{{{RDFS_NS}}}comment")
            comment.text = _check_text(concept.canonical_name, concept.description)
        for pid in sorted(h.direct_parents(concept.id)):
            sub = ET.SubElement(cls, f"{{{RDFS_NS}}}subClassOf")
            sub.set(
                f"{{{RDF_NS}}}resource",
                _iri_for(base_iri, h.concept(pid).canonical_name),
            )
        for name in sorted(concept.synonym_names):
            eq = ET.SubElement(cls, f"{{{OWL_NS}}}equivalentClass")
            eq.set(f"{{{RDF_NS}}}resource", _iri_for(base_iri, name))

    for concept in h.concepts():
        for name in sorted(concept.synonym_names):
            alias = ET.SubElement(root, f"{{{OWL_NS}}}Class")
            alias.set(f"{{{RDF_NS}}}about", _iri_for(base_iri, name))
            label = ET.SubElement(alias, f"{{{RDFS_NS}}}label")
            label.text = name

    ET.indent(root, space="  ")
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


def to_dot(h: ConceptHierarchy, graph_name: str = "hierarchy") -> str:
    """Graphviz digraph with edges drawn parent -> child."""
    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = [f"digraph {graph_name} {{", "  rankdir=TB;"]
    for concept in h.concepts():
        # Escape before joining so the \n line break survives untouched.
        label = esc(concept.canonical_name)
        if concept.synonym_names:
            label += "\\n(= " + esc(", ".join(sorted(concept.synonym_names))) + ")"
        lines.append(f'  c{concept.id} [label="{label}"];')
    for child, parent in sorted(h.direct_edges(), key=lambda e: (e[1], e[0])):
        lines.append(f"  c{parent} -> c{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def compute_stats(
    h: ConceptHierarchy,
    ledger: CostLedger,
    rejected_count: int,
    *,
    config: CrawlConfig | None = None,
) -> CrawlStats:
    """Summarize a finished crawl; counts derive from the hierarchy itself."""
    n_c = len(h)
    edges = h.direct_edges()
    n_sub = len(edges)
    n_sub_ins = sum(
        1 for child, parent in edges
        if h.edge_origin(child, parent) == ORIGIN_INSERTION
    )
    depth_hist: dict[int, int] = {}
    outdeg_hist: dict[int, int] = {}
    max_out = 0
    for concept in h.concepts():
        depth_hist[concept.depth] = depth_hist.get(concept.depth, 0) + 1
        out = len(h.direct_children(concept.id))
        outdeg_hist[out] = outdeg_hist.get(out, 0) + 1
        max_out = max(max_out, out)
    cutoff = config.exploration_depth if config else None
    if cutoff is None:
        below, above = n_c, 0
    else:
        below = sum(n for d, n in depth_hist.items() if d <= cutoff)
        above = n_c - below
    return CrawlStats(
        seed=h.concept(h.seed_id).canonical_name,
        exploration_depth=cutoff,
        ft=config.ft if config else 0,
        n_concepts=n_c,
        n_dismissed=rejected_count,
        n_subsumptions=n_sub,
        n_subsumptions_insertion=n_sub_ins,
        prompts_per_concept=round(ledger.requests / n_c, 2) if n_c else 0.0,
        cost_dollars=round(ledger.dollars, 2),
        concepts_at_or_below_cutoff=below,
        concepts_above_cutoff=above,
        depth_histogram=dict(sorted(depth_hist.items())),
        outdegree_histogram=dict(sorted(outdeg_hist.items())),
        max_outdegree=max_out,
        avg_outdegree=round(n_sub / n_c, 2) if n_c else 0.0,
    )


def stats_to_json_dict(stats: CrawlStats) -> dict:
    """Every ``CrawlStats`` field in declaration order; histogram keys become
    strings, as JSON object keys must be."""
    out: dict = {}
    for f in fields(CrawlStats):
        value = getattr(stats, f.name)
        out[f.name] = (
            {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
        )
    return out


_SUMMARY_COLUMNS = (
    ("seed", "Seed"),
    ("cutoff", "Cutoff"),
    ("ft", "ft"),
    ("concepts", "Concepts"),
    ("dismissed", "Dismissed"),
    ("subsumptions", "Subsumptions"),
    ("ins", "Ins.subs"),
    ("ppc", "Prompts/concept"),
    ("cost", "Cost$"),
    ("within", "WithinCutoff"),
    ("beyond", "BeyondCutoff"),
)


def render_stats_text(stats: CrawlStats) -> str:
    """Aligned plain-text summary: one run row plus the two histograms."""
    row = {
        "seed": stats.seed,
        "cutoff": "none" if stats.exploration_depth is None else str(stats.exploration_depth),
        "ft": str(stats.ft),
        "concepts": str(stats.n_concepts),
        "dismissed": str(stats.n_dismissed),
        "subsumptions": str(stats.n_subsumptions),
        "ins": str(stats.n_subsumptions_insertion),
        "ppc": f"{stats.prompts_per_concept:.2f}",
        "cost": f"{stats.cost_dollars:.2f}",
        "within": str(stats.concepts_at_or_below_cutoff),
        "beyond": str(stats.concepts_above_cutoff),
    }
    headers = [title for _, title in _SUMMARY_COLUMNS]
    values = [row[key] for key, _ in _SUMMARY_COLUMNS]
    widths = [max(len(h_), len(v)) for h_, v in zip(headers, values)]
    lines = [
        "  ".join(h_.ljust(w) for h_, w in zip(headers, widths)).rstrip(),
        "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip(),
        "",
        "Concepts per depth:",
    ]
    for depth in sorted(stats.depth_histogram):
        lines.append(f"  depth {depth}: {stats.depth_histogram[depth]}")
    lines.append("")
    lines.append(
        f"Concepts per outdegree (max {stats.max_outdegree}, "
        f"avg {stats.avg_outdegree:.2f}):"
    )
    for out in sorted(stats.outdegree_histogram):
        lines.append(f"  outdegree {out}: {stats.outdegree_histogram[out]}")
    return "\n".join(lines) + "\n"
