"""Report rows as JSON text, byte for byte as json.dumps(rows, indent=2, allow_nan=False) writes them.

With an indent, json.dumps skips its C encoder and runs the json module's
pure-Python one, which costs more than most checks behind a verify report.
A report writes each row with one f-string of `json_value` calls and joins
the rows with `json_rows`.  `json_value` writes floats by float.__repr__ (a
non-finite one raises ValueError, as allow_nan=False does), strings and keys
by the C `json.encoder.encode_basestring_ascii`, bools and ints as literals,
and a dict with string keys item by item.  Anything else (a tuple, a list,
None, np.float64, an empty dict) it leaves to json.dumps itself, re-indented
to its depth.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

__all__ = ["json_rows", "json_value"]

_INF = math.inf


def json_value(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=2, allow_nan=False) writes it, each line after the first indented by `pad`."""
    kind = type(value)
    if kind is float:
        if -_INF < value < _INF:
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if kind is str:
        return _quote(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is dict and value:
        inner = pad + "  "
        try:
            # A finite float, the most common item, is written inline.
            items = f",\n{inner}".join(
                [
                    f"{_quote(key)}: "
                    f"{float.__repr__(item) if type(item) is float and -_INF < item < _INF else json_value(item, inner)}"
                    for key, item in value.items()
                ]
            )
        except TypeError:
            pass  # a key that is not a string, which json.dumps converts, or an item it refuses
        else:
            return f"{{\n{inner}{items}\n{pad}}}"
    # The lines of json.dumps start at column 0, and no string in it holds a raw newline.
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + pad)


def json_rows(rows: Iterable[str]) -> str:
    """The JSON array of rows that each `json_value(row, "  ")` would write, as json.dumps(..., indent=2) lays it out."""
    body = ",\n  ".join(rows)
    return f"[\n  {body}\n]" if body else "[]"
