"""The text that ``tau2 table`` and ``tau2 value`` print, rendered from integer entries S(g, k).

With L(g) = lcm(1, 3, ..., 2g+1), N(g) = 24^g g! L(g) and
W(k) = (2k+1)!! (6g-1-2k)!! / (6g-1)!!, an entry S(g, k) = N(g) <tau_k
tau_{3g-1-k}> prints as its correlator S / N(g) and its normalized value
a(g, k) = W(k) S / L(g).  Here each is a ``Fraction`` built from
``math.lcm``, ``math.factorial`` and ``math.prod`` afresh, and its text is
``str(Fraction)``: "p/q" in lowest terms with q > 0, or "p" alone.  json goes
through one ``json.dumps``.

With S from ``dijkgraaf.row`` this is an oracle for the printed text that
shares no code with tau2: not its unit, its weights, its text rule or its
line format.  It imports only ``math``, ``fractions`` and ``json``.
"""

import json
from fractions import Fraction
from math import factorial, lcm, prod

COLUMNS = ("g", "k", "correlator", "normalized")
CSV_HEADER = ",".join(COLUMNS)


def cells(g: int, entries: dict) -> list:
    """(g, k, correlator text, normalized text) for each k: S(g, k) of ``entries``, in k order."""
    lam = lcm(*range(1, 2 * g + 2, 2))
    n = 24**g * factorial(g) * lam
    d = prod(range(1, 6 * g, 2))  # (6g-1)!!
    out = []
    for k, s in sorted(entries.items()):
        w = prod(range(1, 2 * k + 2, 2)) * prod(range(1, 6 * g - 2 * k, 2))  # W(k) (6g-1)!!
        out.append((str(g), str(k), str(Fraction(s, n)), str(Fraction(w * s, d * lam))))
    return out


def table(g: int, row: tuple, fmt: str) -> str:
    """What ``tau2 table --g g --format fmt`` prints for the row S(g, 0..3g-1)."""
    rows = cells(g, dict(enumerate(row)))
    if fmt == "json":
        dicts = [{"k": int(k), "correlator": c, "normalized": a} for _, k, c, a in rows]
        return json.dumps({"g": g, "rows": dicts}) + "\n"
    lines = [CSV_HEADER] if fmt == "csv" else []
    lines += [("," if fmt == "csv" else " ").join(cell) for cell in rows]
    return "".join(line + "\n" for line in lines)


def value(g: int, k: int, s: int, fmt: str) -> str:
    """What ``tau2 value --g g --k k --format fmt`` prints for the entry S(g, k) = s."""
    (cell,) = cells(g, {k: s})
    if fmt == "json":
        return json.dumps({"g": g, "k": k, "correlator": cell[2], "normalized": cell[3]}) + "\n"
    if fmt == "csv":
        return f"{CSV_HEADER}\n{','.join(cell)}\n"
    return f"{cell[2]}\n{cell[3]}\n"


def parse(text: str, fmt: str, command: str = "table") -> list:
    """The cells of a printed ``table`` or ``value`` text, as ``cells`` lists them.

    A text that does not parse gives no cells.  ``value`` in plain prints no g
    and no k: its one cell has None in their places.
    """
    try:
        if fmt == "json":
            obj = json.loads(text)
            rows = obj["rows"] if command == "table" else [obj]
            return [(str(obj["g"]), str(r["k"]), r["correlator"], r["normalized"]) for r in rows]
    except (ValueError, KeyError, TypeError):
        return []
    lines = text.splitlines()[fmt == "csv" :]
    if fmt == "plain" and command == "value":
        return [(None, None, *lines)]
    return [tuple(line.split("," if fmt == "csv" else " ")) for line in lines]
