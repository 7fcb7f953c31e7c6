"""Four-step candidate verification with a single rename fallback.

A discovered name D (candidate subcategory of C inside seed C0) must survive,
in order: not an instance of the domain, not a part, acceptable under the
seed, and understood as a subcategory of C.  The check short-circuits at the
first failure.  Failing step 1 or 2 rejects immediately; failing step 3 or 4
grants one rename attempt from D's description, after which all four steps
run once more on the new name.  An inconclusive answer, one that cannot be
parsed, rejects without a rename.  A transport failure is not an answer: it
propagates, so the crawl aborts resumably instead of dismissing the
candidate.  Worst case: 4 + 1 + 4 oracle calls.

``verify_ahead`` runs a listing's dialogues concurrently and drops the
verdicts: the crawler's own ``verify`` of each candidate, rendered later from
live state, then replays from the reply cache every prompt that is unchanged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import OracleParseError
from .hierarchy import normalize_name
from .oracle import KnowledgeOracle, OracleContext

logger = logging.getLogger(__name__)

ACCEPTED = "accepted"
ACCEPTED_RENAMED = "accepted_renamed"
REJECTED = "rejected"

REASON_INSTANCE = "instance"
REASON_PART = "part"
REASON_NOT_UNDER_SEED = "not_under_seed"
REASON_NOT_UNDER_PARENT = "not_under_parent"
REASON_RENAME_FAILED = "rename_failed"

INCONCLUSIVE = "inconclusive"

# Each step: its transcript name, the reason it rejects with, the oracle
# question it asks of (oracle, ctx, d, c), and the answer that fails it.
_STEPS = (
    ("instance", REASON_INSTANCE, lambda o, ctx, d, c: o.is_instance(ctx, d), True),
    ("part", REASON_PART, lambda o, ctx, d, c: o.is_part(ctx, d), True),
    ("under_seed", REASON_NOT_UNDER_SEED, lambda o, ctx, d, c: o.under_seed(ctx, d), False),
    (
        "under_parent",
        REASON_NOT_UNDER_PARENT,
        lambda o, ctx, d, c: o.is_subcategory_of(ctx, d, c),
        False,
    ),
)


@dataclass
class Verdict:
    """Outcome of one verification run.

    ``transcript`` lists (step, answer) pairs in the order the oracle was
    consulted, including the rename attempt and any second pass.
    """

    outcome: str
    new_name: str | None = None
    reason: str | None = None
    transcript: list[tuple[str, object]] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.outcome in (ACCEPTED, ACCEPTED_RENAMED)


def _run_steps(
    oracle: KnowledgeOracle,
    ctx: OracleContext,
    d: str,
    c: str,
    transcript: list[tuple[str, object]],
) -> tuple[str | None, bool]:
    """Run steps 1..4 on name ``d``.

    Returns (failed_reason, conclusive); (None, True) means all passed.
    """
    for step, reason, ask, failing in _STEPS:
        try:
            answer = ask(oracle, ctx, d, c)
        except OracleParseError as exc:
            logger.warning("verification step %r inconclusive for %r: %s", step, d, exc)
            transcript.append((step, INCONCLUSIVE))
            return reason, False
        transcript.append((step, answer))
        if bool(answer) is failing:
            return reason, True
    return None, True


def verify(oracle: KnowledgeOracle, ctx: OracleContext, d: str, c: str) -> Verdict:
    """Decide whether candidate ``d`` may enter the hierarchy below ``c``."""
    transcript: list[tuple[str, object]] = []
    reason, conclusive = _run_steps(oracle, ctx, d, c, transcript)
    if reason is None:
        return Verdict(ACCEPTED, transcript=transcript)
    if not conclusive or reason in (REASON_INSTANCE, REASON_PART):
        return Verdict(REJECTED, reason=reason, transcript=transcript)

    # Steps 3-4: the name may be sloppy; ask for a better one, once.
    description = ctx.description_of(d)
    try:
        new_name = oracle.rename_from_description(ctx, c, description or "")
    except OracleParseError as exc:
        logger.warning("rename inconclusive for %r: %s", d, exc)
        transcript.append(("rename", INCONCLUSIVE))
        return Verdict(REJECTED, reason=REASON_RENAME_FAILED, transcript=transcript)
    transcript.append(("rename", new_name))
    if not new_name or normalize_name(new_name) == normalize_name(d):
        return Verdict(REJECTED, reason=REASON_RENAME_FAILED, transcript=transcript)

    # The second pass names only the new name, the seed and c; the new name
    # carries d's description unless it names a stored concept.
    ctx2 = replace(ctx, descriptions={new_name: description or ""})
    reason2, _ = _run_steps(oracle, ctx2, new_name, c, transcript)
    if reason2 is None:
        return Verdict(ACCEPTED_RENAMED, new_name=new_name, transcript=transcript)
    return Verdict(REJECTED, reason=reason2, transcript=transcript)


def verify_ahead(
    oracle: KnowledgeOracle, ctx: OracleContext, names: Iterable[str], c: str
) -> None:
    """``verify`` every name at once through ``oracle.map``, for the replies
    alone; without that hook, or for fewer than two names, do nothing and
    leave ``names`` unread.  A transport failure propagates."""
    concurrent = getattr(oracle, "map", None)
    names = [] if concurrent is None else list(names)
    if len(names) > 1:
        concurrent(lambda d: verify(oracle, ctx, d, c), names)
