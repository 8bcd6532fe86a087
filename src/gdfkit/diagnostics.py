"""Diagnostics emitted by parsing and validation.

Rule identifiers are stable strings of the form ``section.finding`` (for
example ``channel.dig_bounds_exceed_type``); the full catalogue is documented
in the project README.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Severity(IntEnum):
    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    rule: str
    message: str
    section: str = ""
    offset: int | None = None

    def __str__(self) -> str:
        where = self.section or "file"
        if self.offset is not None:
            where = f"{where}@{self.offset}"
        return f"{self.severity}: [{self.rule}] {where}: {self.message}"


class Diagnostics(list):
    """An ordered list of :class:`Diagnostic` with convenience constructors."""

    def add(self, severity: Severity, rule: str, message: str, *,
            section: str = "", offset: int | None = None) -> None:
        self.append(Diagnostic(severity, rule, message, section=section, offset=offset))

    def error(self, rule: str, message: str, **kw) -> None:
        self.add(Severity.ERROR, rule, message, **kw)

    def warning(self, rule: str, message: str, **kw) -> None:
        self.add(Severity.WARNING, rule, message, **kw)

    def info(self, rule: str, message: str, **kw) -> None:
        self.add(Severity.INFO, rule, message, **kw)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == Severity.ERROR for d in self)

    def worst(self) -> Severity | None:
        return max((d.severity for d in self), default=None)


class _Dropped(Diagnostics):
    """The collector of a caller that reads no findings: it keeps none."""

    def add(self, *args, **kw) -> None:
        pass

    append = extend = add


def sink(diags: Diagnostics | None) -> Diagnostics:
    """Return ``diags``, or a collector that drops every finding when the
    caller passed None. The functions that take a sink only add to it."""
    return diags if diags is not None else _Dropped()
