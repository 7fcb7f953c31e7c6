"""Serialization of finished hierarchies: OWL RDF/XML, DOT, run statistics.

Output is deterministic: concepts are emitted in id order, edges and synonym
names sorted, so identical hierarchies yield byte-identical documents.

The OWL document is written directly, one line per element, and joined once.
Each name's IRI is percent-encoded once per export: a concept's IRI is kept
by id for every ``rdfs:subClassOf`` that points at it, and a synonym's IRI
serves both its ``owl:equivalentClass`` axiom and its alias class.  The
layout and escaping are those of ElementTree's serializer after
``ET.indent``: namespaces declared on the root in prefix order, a two-space
indent, ``" />"`` closing an empty element, ``& < >`` escaped in text, and
``& < > "`` plus CR, LF and TAB (as character references) in attributes.  One
departure: a CR in text is written ``&#13;`` too, because an XML parser reads
a raw CR or CRLF as LF and the label or comment would not survive a parse.
"""

from __future__ import annotations

import logging
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


def _escape_text(text: str) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.replace("\r", "&#13;")


def _escape_attr(text: str) -> str:
    text = _escape_text(text).replace('"', "&quot;")
    return text.replace("\n", "&#10;").replace("\t", "&#09;")


def _iri_for(prefix: str, name: str) -> str:
    """The escaped IRI of ``name`` under ``prefix``, the escaped ``base#``;
    percent-encoding leaves nothing in the name that needs escaping."""
    for ch in _XML_BAD:
        if ch in name:
            raise ExportError(f"name {name!r} contains characters XML cannot carry")
    return prefix + quote(name, safe="")


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
    prefix = _escape_attr(base_iri + "#")
    iris = {c.id: _iri_for(prefix, c.canonical_name) for c in h.concepts()}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<rdf:RDF xmlns:owl="{OWL_NS}" xmlns:rdf="{RDF_NS}" xmlns:rdfs="{RDFS_NS}">',
        f'  <owl:Ontology rdf:about="{_escape_attr(base_iri)}" />',
    ]
    aliases: list[tuple[str, str]] = []
    for concept in h.concepts():
        label = _escape_text(concept.canonical_name)
        lines.append(f'  <owl:Class rdf:about="{iris[concept.id]}">')
        lines.append(f"    <rdfs:label>{label}</rdfs:label>")
        if concept.description:
            text = _check_text(concept.canonical_name, concept.description)
            lines.append(f"    <rdfs:comment>{_escape_text(text)}</rdfs:comment>")
        for pid in sorted(h.direct_parents(concept.id)):
            lines.append(f'    <rdfs:subClassOf rdf:resource="{iris[pid]}" />')
        for name in sorted(concept.synonym_names):
            iri = _iri_for(prefix, name)
            lines.append(f'    <owl:equivalentClass rdf:resource="{iri}" />')
            aliases.append((name, iri))
        lines.append("  </owl:Class>")
    for name, iri in aliases:
        lines.append(f'  <owl:Class rdf:about="{iri}">')
        lines.append(f"    <rdfs:label>{_escape_text(name)}</rdfs:label>")
        lines.append("  </owl:Class>")
    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"


def to_dot(h: ConceptHierarchy) -> str:
    """Graphviz digraph with edges drawn parent -> child."""
    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph hierarchy {", "  rankdir=TB;"]
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
    config: CrawlConfig,
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
    cutoff = config.exploration_depth
    if cutoff is None:
        below, above = n_c, 0
    else:
        below = sum(n for d, n in depth_hist.items() if d <= cutoff)
        above = n_c - below
    return CrawlStats(
        seed=h.concept(h.seed_id).canonical_name,
        exploration_depth=cutoff,
        ft=config.ft,
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
