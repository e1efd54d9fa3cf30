"""Exception hierarchy with module-qualified error codes.

Every error the CLI can surface, and every report warning (``Flag``),
carries a stable ``code`` that callers match on without parsing messages.
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


class DuplicateDocId(DocstitchError):
    code = "cli.DuplicateDocId"


class ConfigError(DocstitchError):
    code = "cli.ConfigError"


class ConfigNotFound(ConfigError):
    code = "cli.ConfigNotFound"


class BadConfig(ConfigError):
    code = "chunking.BadConfig"


class Flag(str):
    """One report warning, with text ``[subtask[chunk]:]code[:detail]``.
    ``run_pipeline`` places each predictor flag at its subtask and chunk."""

    def __new__(cls, code: str, detail: str = "", subtask: str = "", chunk: int | None = None):
        text = (f"{subtask}[{chunk}]:" if subtask else "") + code + (f":{detail}" if detail else "")
        self = super().__new__(cls, text)
        self.code, self.detail, self.subtask, self.chunk = code, detail, subtask, chunk
        return self

    def __deepcopy__(self, memo: dict) -> Flag:
        return self  # never changed once built, so asdict need not rebuild it


# What a reader's conversions raise on a missing key or on a value of the wrong
# type, shape or range; every JSON reader turns them into its code with bad_field.
BAD_FIELD = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def bad_field(
    error: type[DocstitchError], where: str, exc: Exception, key: str = ""
) -> DocstitchError:
    """``error`` saying which field of ``where`` ``exc`` rejected; ``key``
    names the field when the caller knows it."""
    if isinstance(exc, KeyError):
        return error(f"{where} is missing its {exc.args[0]} field")
    named = f"{key} field" if key else "field"
    return error(f"{where} has a bad {named}: {exc}")
