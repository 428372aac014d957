"""The rules for values read from outside the program, and one reader each
for the JSON documents the CLI takes and for settings given as text: each
failure names where it is, with values shown through reprlib so that a
message stays one short line.
"""

from __future__ import annotations

import json
import re
import reprlib
from datetime import datetime, timedelta, timezone
from typing import Any, Callable, Mapping, NamedTuple

# Integers read from outside the program (timestamps, AS numbers, times and
# settings) have at most INT_DIGITS digits: int() refuses a text of over
# 4300 digits, and float() an int of over 308.
INT_DIGITS = 18
INT_LIMIT = 10**INT_DIGITS
OF_DIGITS = f" of at most {INT_DIGITS} digits"
_SURROGATE = re.compile("[\ud800-\udfff]")


def utf8_text(value) -> bool:
    """Whether `value` is a str that UTF-8 can encode: one without a lone
    surrogate, as JSON's "\\ud800" and a non-UTF-8 byte in argv decode to."""
    return isinstance(value, str) and (value.isascii() or _SURROGATE.search(value) is None)


# RFC 3339 date-time (with "T", "t" or a space between date and time), where
# the time may also end at the minutes or be left out, and a missing offset
# means UTC.  Matched here rather than by datetime.fromisoformat, whose
# accepted forms differ between Python versions.  Groups: year, month, day,
# hour, minute, second, offset sign, offset hours, offset minutes.
_RFC3339 = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
    r"(?:[Tt ]([0-9]{2}):([0-9]{2})(?::([0-9]{2})(?:\.[0-9]+)?)?"
    r"(?:[Zz]|([+-])([0-9]{2}):([0-9]{2}))?)?"
)


def parse_utc(text: str) -> int:
    """RFC 3339 timestamp to unix seconds; everything is UTC.

    Takes YYYY-MM-DD, optionally followed by HH:MM[:SS[.fraction]] and an
    offset (Z or +HH:MM / -HH:MM), the same on every Python version.  A
    fraction of a second is dropped.  Other ISO 8601 forms (week and
    ordinal dates, the basic format without separators) and out-of-range
    fields raise ValueError; a value that is not a string raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"time must be an RFC 3339 string, got {reprlib.repr(text)}")
    m = _RFC3339.fullmatch(text)
    if m is None:
        raise ValueError(f"not an RFC 3339 time: {reprlib.repr(text)}")
    fields = [int(g or 0) for g in m.group(1, 2, 3, 4, 5, 6)]
    sign, off_hours, off_minutes = m.group(7, 8, 9)
    offset = timedelta()
    if sign is not None:
        if int(off_hours) > 23:
            raise ValueError(f"offset hours out of range in {reprlib.repr(text)}")
        if int(off_minutes) > 59:
            raise ValueError(f"offset minutes out of range in {reprlib.repr(text)}")
        offset = timedelta(hours=int(off_hours), minutes=int(off_minutes))
        if sign == "-":
            offset = -offset
    return int(datetime(*fields, tzinfo=timezone(offset)).timestamp())


class ConfigurationError(ValueError):
    """A document read from outside breaks its field table or its records'
    rules, or incident windows and study bounds do not line up."""


class Kind(NamedTuple):
    """A field's rule: `read` returns the value the record takes, or raises
    TypeError, ValueError or OverflowError for a value that is not `text`."""

    text: str
    read: Callable[[Any], Any]
    required: bool = True


def optional(kind: Kind) -> Kind:
    """`kind` for a field that may be left out, so that the record's default applies."""
    return kind._replace(required=False)


def _integer(value, low: int = 1 - INT_LIMIT) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < INT_LIMIT:
        raise ValueError(value)
    return value


def _integers(value, length: int | None = None) -> list[int]:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ValueError(value)
    return list(map(_integer, value))


def _text(value) -> str:
    if not utf8_text(value):
        raise ValueError(value)
    return value


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)  # OverflowError past a float's range


INTEGER = Kind(f"an integer{OF_DIGITS}", _integer)
NONNEGATIVE = Kind(f"a nonnegative integer{OF_DIGITS}", lambda value: _integer(value, 0))
# Integral floats pass too: 200.0 reads as 200, as JSON and read_text give it.
WHOLE = Kind(
    f"a whole number{OF_DIGITS}",
    lambda value: _integer(int(value) if isinstance(value, float) and value.is_integer() else value),
)
REAL = Kind("a real number", _real)
TEXT = Kind("a string without lone surrogates", _text)
TIME = Kind("an RFC 3339 time string", parse_utc)
INSTANT = Kind(f"an integer{OF_DIGITS} or an RFC 3339 time string",  # unix seconds or a time
               lambda value: parse_utc(value) if isinstance(value, str) else _integer(value))
INTEGER_PAIR = Kind(f"a pair of integers{OF_DIGITS}", lambda value: _integers(value, 2))
INTEGER_LIST = Kind(f"a list of integers{OF_DIGITS}", _integers)
ANY = Kind("any JSON value", lambda value: value)


# Stripped, a setting's text is an integer (an optional "-" and 1 to
# INT_DIGITS ASCII digits: group 1) or a real (ASCII decimal or exponent
# text), or else stays text: "1_000", "inf" and non-ASCII digits stay text.
_NUMBER_TEXT = re.compile(rf"(-?[0-9]{{1,{INT_DIGITS}}})|[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def read_text(text: str) -> int | float | str:
    """The number that a setting's `text` spells, or else the text stripped."""
    text = text.strip()
    number = _NUMBER_TEXT.fullmatch(text)
    if number is None:
        return text
    return int(text) if number[1] else float(text)  # float: inf past its range, as in JSON


def read_setting(text: str, kind: Kind, where: str):
    """A setting's `text`, such as an option's, read as a field of `kind`: by
    read_text, or as given for text.  Errors read `WHERE must be KIND, got TEXT`."""
    try:
        return kind.read(text if kind.read is _text else read_text(text))
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{where} must be {kind.text}, got {reprlib.repr(text)}") from None


def read_json(data: bytes | str, where: str):
    """The JSON document in `data`, UTF-8 bytes or text."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise ConfigurationError(f"{where}: not a JSON document: {exc}") from exc


def read_record(doc, table: Mapping[str, Kind], where: str, make: Callable[..., Any] = dict):
    """make(**fields) of the JSON object `doc`, each field read by its Kind
    in `table`.  Raises ConfigurationError, led by `where`, for a field not
    in `table` or not of its kind, a missing required field, and a
    ValueError from `make`: the record's own rules."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where}: must be an object, got {reprlib.repr(doc)}")
    for name in doc:
        if name not in table:
            raise ConfigurationError(f"{where}: unknown field {reprlib.repr(name)}")
    fields = {}
    for name, kind in table.items():
        if name not in doc:
            if kind.required:
                raise ConfigurationError(f"{where}: missing field {name!r}")
            continue
        value = doc[name]
        try:
            fields[name] = kind.read(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{where}: field {name!r} must be {kind.text}, got {reprlib.repr(value)}"
            ) from None
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
