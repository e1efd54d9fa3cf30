"""Exception hierarchy with module-qualified error codes.

Every error the CLI can surface carries a stable ``code`` so batch callers
can match on it without parsing messages.
"""

from __future__ import annotations


class DocstitchError(Exception):
    code = "docstitch.Error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}


class SchemaUnknown(DocstitchError):
    code = "ingest.SchemaUnknown"


class MalformedInput(DocstitchError):
    code = "ingest.MalformedInput"


class BBoxInvalid(DocstitchError):
    code = "ingest.BBoxInvalid"


class TableHtmlUnparseable(DocstitchError):
    code = "tables.TableHtmlUnparseable"


class ColumnMismatch(DocstitchError):
    code = "apply.ColumnMismatch"


class BackendUnavailable(DocstitchError):
    code = "predictors.BackendUnavailable"


class MalformedResponse(DocstitchError):
    code = "predictors.MalformedResponse"


class SchemaMismatch(DocstitchError):
    code = "eval.SchemaMismatch"


class ConfigError(DocstitchError):
    code = "cli.ConfigError"


class ConfigNotFound(ConfigError):
    code = "cli.ConfigNotFound"


class BadConfig(ConfigError):
    code = "chunking.BadConfig"
