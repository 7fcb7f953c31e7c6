"""Exception types shared across the package."""

from __future__ import annotations


class OntocrawlError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OntocrawlError):
    """A caller-supplied value is malformed (empty name, bad probability, ...)."""


class NotFoundError(OntocrawlError):
    """A concept id or name does not exist in the hierarchy."""


class CycleError(OntocrawlError):
    """An edge or merge would create a cycle among distinct concepts.

    ``path`` holds the offending concept ids in order; the first and last
    entries coincide once the rejected edge is taken into account.  For a
    refused merge the path is already closed: its last step joins the two
    concepts the merge would identify, and every other step is a direct edge.
    """

    def __init__(self, message: str, path: list[int] | None = None):
        super().__init__(message)
        self.path: list[int] = path or []


class IntegrityError(OntocrawlError):
    """An internal invariant (closure, reduction, depth, name index) is broken."""


class CheckpointError(OntocrawlError):
    """A checkpoint, or the reply cache beside it, is malformed or fails its checks."""


class ConfigError(OntocrawlError):
    """A crawl configuration value is out of range or inconsistent."""


class TemplateError(OntocrawlError):
    """A prompt template has unbound or unknown placeholders."""


class ExportError(OntocrawlError):
    """A hierarchy cannot be serialized (for example a name XML cannot carry)."""


class OracleError(OntocrawlError):
    """Base class for oracle failures."""


class OracleParseError(OracleError):
    """An oracle reply could not be parsed even after the single retry."""


class TransportError(OracleError):
    """The HTTP transport failed after exhausting its retries."""

    def __init__(self, message: str, status: int | None = None, retryable: bool = True):
        super().__init__(message)
        self.status = status
        self.retryable = retryable


class CrawlAbortedError(OntocrawlError):
    """An unrecoverable oracle failure interrupted a crawl; a checkpoint was saved."""

    def __init__(self, message: str, checkpoint_path: str | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
