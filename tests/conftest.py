from pathlib import Path

import pytest

from ontocrawl import GroundTruthTaxonomy
from support import CrawlMatrix

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def goats_path() -> Path:
    return FIXTURES / "goats.json"


@pytest.fixture()
def goats(goats_path) -> GroundTruthTaxonomy:
    return GroundTruthTaxonomy.load(goats_path)


@pytest.fixture(scope="session")
def crawls(tmp_path_factory) -> CrawlMatrix:
    """The session's crawl matrix: each distinct crawl runs once."""
    return CrawlMatrix(tmp_path_factory.mktemp("crawls"))
