"""The checkpoint reader: an edited checkpoint is refused or saves back to itself.

A QuickCheck-style property (Claessen and Hughes, ICFP 2000) over single-leaf
edits, made exhaustive and deterministic: every leaf of each checkpoint below
is set to every value of ``EDIT_VALUES`` in turn.  The rule has no listed
exception.  The reader refuses a list in any order but the writer's (concept
ids, synonyms, direct edges, edge origins, frontier), so the writer's order
never has to be forgiven.  Ledger ``dollars`` is the one field whose saved
text can differ from an accepted edit (7 is saved as 7.0), and that is the
same JSON number.
"""

from __future__ import annotations

import json

from ontocrawl import Crawler, GroundTruthTaxonomy, MockOracle, NoiseModel
from ontocrawl.errors import CheckpointError
from support import c2_taxonomy, make_mock_crawler, run_mock_crawl

EDIT_VALUES = (
    "", " ", "xy", "7", "llm", 0, 1, 7, -1, 2.5, True, False, None, [], [1], {}, {"a": 1},
)


def json_value(x):
    """``x`` as a value that compares the way JSON values do: true and false
    are not the numbers 1 and 0, and there is one number type, so 7 and 7.0
    are equal."""
    if isinstance(x, dict):
        return {k: json_value(v) for k, v in x.items()}
    if isinstance(x, list):
        return [json_value(v) for v in x]
    return ("bool", x) if isinstance(x, bool) else x


def leaf_paths(x, path=()):
    """The key path of every value of ``x`` that is not a non-empty list or
    object."""
    if isinstance(x, dict) and x:
        for key, value in x.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(x, list) and x:
        for index, value in enumerate(x):
            yield from leaf_paths(value, (*path, index))
    else:
        yield path


def edited(doc, path: tuple, value):
    """``doc`` with ``value`` at key path ``path``; only the lists and
    objects along the path are copied."""
    if not path:
        return value
    head, *rest = path
    out = doc.copy()
    out[head] = edited(doc[head], tuple(rest), value)
    return out


def noisy_mid_crawl(goats_path) -> dict:
    """Goats with Milch Goats, a synonym of Dairy Goats, also listed under
    Meat Goats, crawled four steps under noise, and one more synonym added by
    hand: rejections, two synonyms of one concept and a frontier that holds
    id 1, which a reader that lets ``true`` pass for 1 would accept."""
    data = json.loads(goats_path.read_text(encoding="utf-8"))
    data["edges"] += [["Milch Goats", "Meat Goats"]]
    data["synonyms"] = [["Milch Goats", "Dairy Goats"]]
    crawler = make_mock_crawler(
        GroundTruthTaxonomy.from_json_dict(data),
        noise=NoiseModel(
            rng_seed=18, p_attribute_inflation=0.3, p_wrong_relation=0.3, p_hallucinated_edge=0.1
        ),
    )
    for _ in range(4):
        assert crawler.step()
    h = crawler.hierarchy
    h.add_synonym_name(h.find_by_name("Dairy Goats"), "Dairy Breeds")
    return crawler.to_checkpoint_dict()


def checkpoints(goats, goats_path) -> dict[str, dict]:
    docs = {
        "goats": run_mock_crawl(goats).to_checkpoint_dict(),
        "noisy": noisy_mid_crawl(goats_path),
    }
    for i in (1, 6, 9):
        docs[f"c2-{i}"] = run_mock_crawl(c2_taxonomy(i)).to_checkpoint_dict()
    return {name: json.loads(json.dumps(doc)) for name, doc in docs.items()}


def test_the_checkpoints_cover_every_kind_of_field(goats, goats_path):
    docs = checkpoints(goats, goats_path)
    noisy = docs["noisy"]
    assert noisy["rejections"] and 1 in noisy["frontier"]
    assert any(len(c["synonyms"]) > 1 for c in noisy["hierarchy"]["concepts"])
    assert all(not doc["frontier"] for name, doc in docs.items() if name != "noisy")


def test_every_single_leaf_edit_is_refused_or_saves_back_to_itself(goats, goats_path):
    oracle = MockOracle(goats)
    for name, doc in checkpoints(goats, goats_path).items():
        saved = Crawler.from_checkpoint(doc, oracle).to_checkpoint_dict()
        assert json_value(saved) == json_value(doc), name
        loaded = 0
        for path in leaf_paths(doc):
            for value in EDIT_VALUES:
                edit = edited(doc, path, value)
                try:
                    crawler = Crawler.from_checkpoint(edit, oracle)
                except CheckpointError:
                    continue
                loaded += 1
                saved = crawler.to_checkpoint_dict()
                # Equal text is the common, fast case; json_value settles 7 against 7.0.
                if json.dumps(saved, sort_keys=True) != json.dumps(edit, sort_keys=True):
                    assert json_value(saved) == json_value(edit), (name, path, value)
        assert loaded, name
