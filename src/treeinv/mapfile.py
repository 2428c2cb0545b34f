"""Plain-text serialization of polynomial maps.

Format, one directive per line:

    map <name>
    n <int>
    d <int>
    w <i> <j1> ... <jd> <p>/<q>
    end

Indices are 1-based in the file.  Coefficients are integers or p/q
rationals; n is at most MAX_N and d at most MAX_D.  Blank lines and
#-comments are ignored; duplicate w lines for the same canonical index
set are summed.  Parsing is strict: anything malformed raises
MapFormatError with the offending line number.
"""

from __future__ import annotations

import re
from fractions import Fraction

from treeinv.errors import MapFormatError
from treeinv.tensormap import PolyMap, SymTensor, TensorKey


# The token forms serialize_map writes.  int() alone would also take signs,
# underscores and non-ASCII digits ("+1", "1_1", "\uff12").
_INDEX = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(token: str, lineno: int) -> Fraction:
    if not _RATIONAL.fullmatch(token):
        raise MapFormatError(lineno, f"bad rational {token!r}: expected an integer or p/q")
    try:
        if "/" in token:
            p, q = token.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise MapFormatError(lineno, f"bad rational {token!r}: {exc}") from None


# Largest dimension and degree a map file may declare.  Every fixture,
# test and benchmark map is far below them; a larger header is refused
# before any per-index work (n^2 Jacobian entries, d + 3 fields per w line).
MAX_N = 64
MAX_D = 32


def _parse_header_int(
    fields: list[str], lineno: int, minimum: int, maximum: int, message: str
) -> int:
    """The single argument of an n or d line: ASCII digits for an int in [minimum, maximum]."""
    value = minimum - 1
    if len(fields) == 2 and _INDEX.fullmatch(fields[1]):
        try:
            value = int(fields[1])
        except ValueError:  # int() caps the digit count
            value = maximum + 1
    if value < minimum:
        raise MapFormatError(lineno, message)
    if value > maximum:
        key = fields[0]
        raise MapFormatError(lineno, f"{key} exceeds the limit MAX_{key.upper()} = {maximum}")
    return value


def parse_map(text: str) -> PolyMap:
    """Parse one map block from text."""
    name: str | None = None
    n: int | None = None
    d: int | None = None
    # duplicate w lines summed in place, as SymTensor would
    entries: dict[TensorKey, Fraction] = {}
    seen_end = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if seen_end:
            raise MapFormatError(lineno, f"content after end: {line!r}")
        fields = line.split()
        keyword = fields[0]

        # w lines first: they are most of a file
        if keyword == "w":
            if n is None or d is None:
                raise MapFormatError(lineno, "w before n and d directives")
            if len(fields) != d + 3:
                raise MapFormatError(
                    lineno, f"w takes {d + 1} indices and a coefficient, got {len(fields) - 1} fields"
                )
            tokens = fields[1 : d + 2]
            # the joined tokens are ASCII digits exactly when each token matches _INDEX
            digits = "".join(tokens)
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                indices = list(map(int, tokens))
            except ValueError:  # int() also caps the digit count
                raise MapFormatError(lineno, f"non-integer index in {line!r}") from None
            if min(indices) < 1 or max(indices) > n:
                raise MapFormatError(lineno, f"index outside [1, {n}] in {line!r}")
            value = _parse_rational(fields[d + 2], lineno)
            key = (indices[0] - 1, tuple([j - 1 for j in sorted(indices[1:])]))
            if key in entries:
                value += entries[key]
            entries[key] = value
        elif keyword == "map":
            if name is not None:
                raise MapFormatError(lineno, "duplicate map directive")
            if len(fields) != 2:
                raise MapFormatError(lineno, "map takes exactly one name")
            name = fields[1]
        elif keyword == "n":
            if name is None:
                raise MapFormatError(lineno, "n before map directive")
            if n is not None:
                raise MapFormatError(lineno, "duplicate n directive")
            n = _parse_header_int(fields, lineno, 1, MAX_N, "n takes one positive integer")
        elif keyword == "d":
            if name is None:
                raise MapFormatError(lineno, "d before map directive")
            if d is not None:
                raise MapFormatError(lineno, "duplicate d directive")
            d = _parse_header_int(fields, lineno, 2, MAX_D, "d takes one integer >= 2")
        elif keyword == "end":
            if name is None or n is None or d is None:
                raise MapFormatError(lineno, "end before map, n, and d directives")
            if len(fields) != 1:
                raise MapFormatError(lineno, "end takes no arguments")
            seen_end = True
        else:
            raise MapFormatError(lineno, f"unknown directive {keyword!r}")

    if name is None:
        raise MapFormatError(0, "missing map directive")
    if n is None or d is None:
        raise MapFormatError(0, "missing n or d directive")
    if not seen_end:
        raise MapFormatError(0, "missing end directive")

    return PolyMap(SymTensor._checked(n, d, entries), name=name)


def load_map(path: str) -> PolyMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map(fh.read())


def serialize_map(pmap: PolyMap) -> str:
    """Canonical text form: sorted w lines, coefficients always as p/q."""
    lines = [f"map {pmap.name or 'unnamed'}", f"n {pmap.n}", f"d {pmap.d}"]
    for (i, lower), value in sorted(pmap.tensor.entries.items()):
        idx = " ".join(str(j + 1) for j in (i, *lower))
        lines.append(f"w {idx} {value.numerator}/{value.denominator}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_map(pmap: PolyMap, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_map(pmap))
