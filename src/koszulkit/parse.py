"""Text syntax for ring declarations, polynomials, and ideal files.

Ring declarations:   ring QQ [x,y,z,w]
                     ring F32003 [x,y,a3,a4,b3,b4,z]
                     ring F2 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]
Polynomials:         identifiers, `*`, `^`, integer or a/b coefficients,
                     e.g.  x^2 + z*w - 3/2*y^2
Ideal files:         a ring declaration line, then `ideal:` followed by
                     comma-separated polynomials (may span lines).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .field import FieldError, field_by_name
from .ring import Polynomial, RingContext, RingError


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int | None = None, text: str | None = None):
        loc = ""
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            loc = f" at line {line}, column {col}"
        super().__init__(msg + loc)


_RING_RE = re.compile(r"^\s*ring\s+(\S+)\s*\[(.*)\]\s*$", re.S)
_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def parse_ring(decl: str) -> RingContext:
    m = _RING_RE.match(decl)
    if not m:
        raise ParseError(f"bad ring declaration {decl!r}")
    body = m.group(2).strip()
    if not body:
        raise ParseError("ring declaration with no variables")
    names, weights = [], []
    # split on commas not inside parentheses
    depth, cur, parts = 0, "", []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    for part in parts:
        part = part.strip()
        if ":" in part:
            nm, w = part.split(":", 1)
            nm = nm.strip()
            w = w.strip()
            if not (w.startswith("(") and w.endswith(")")):
                raise ParseError(f"bad variable weight in {part!r}")
            try:
                weights.append(tuple(int(x) for x in w[1:-1].split(",")))
            except ValueError as exc:
                raise ParseError(f"bad variable weight in {part!r}") from exc
        else:
            nm = part
            weights.append(None)
        if not _VAR_RE.match(nm):
            raise ParseError(f"bad variable name {nm!r}")
        names.append(nm)
    if 0 < weights.count(None) < len(weights):
        raise ParseError("either all or no variables may carry weights")
    try:
        return RingContext(field_by_name(m.group(1)), names, None if None in weights else weights)
    except (FieldError, RingError) as exc:
        raise ParseError(str(exc)) from exc


# the most terms a power in the input may expand to: a power of a sum is
# expanded in full, at a cost that grows with the square of its size
_MAX_POWER_TERMS = 1000


def _power_terms(base: Polynomial, e: int) -> int:
    """An upper bound on the number of terms of base**e: the smaller of the
    number of multisets of e terms of base and the number of monomials in
    the variables of base whose degree lies between e times the least and e
    times the largest degree of its terms."""
    t = len(base.terms)
    if t < 2:
        return t
    nvars = sum(1 for i in range(base.ring.n) if any(m[i] for m in base.terms))
    degs = [sum(m) for m in base.terms]
    lo, hi = e * min(degs), e * max(degs)
    return min(comb(e + t - 1, t - 1), comb(hi + nvars, nvars) - comb(lo - 1 + nvars, nvars))


# the most pairs of terms a product in the input may multiply: a product of
# two powers that each pass the bound above would still take seconds
_MAX_PRODUCT_PAIRS = 10**5


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
            break
        if m.group("num"):
            out.append(("num", int(m.group("num")), pos))
        elif m.group("name"):
            out.append(("name", m.group("name"), pos))
        else:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    return out


class _PolyParser:
    """Recursive descent over +, -, *, /, ^, parentheses."""

    def __init__(self, ring: RingContext, text: str):
        self.ring = ring
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos, self.text)
        return p

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.next()
            neg = val == "-"
        p = self.term()
        if neg:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def times(self, p: Polynomial, pos: int) -> Polynomial:
        """p times the next factor; pos is the operator's position."""
        q = self.factor()
        if len(p.terms) * len(q.terms) > _MAX_PRODUCT_PAIRS:
            raise ParseError(f"a product of more than {_MAX_PRODUCT_PAIRS} pairs of terms", pos, self.text)
        return p * q

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = self.times(p, pos)
            elif kind == "op" and val == "/":
                self.next()
                kind2, d, pos2 = self.next()
                if kind2 != "num":
                    raise ParseError("expected an integer denominator", pos2, self.text)
                if self.ring.field.is_zero(self.ring.field.from_int(d)):
                    raise ParseError(f"denominator {d} is zero in {self.ring.field.name}", pos2, self.text)
                p = p.scale(self.ring.field.coerce(Fraction(1, d)))
            elif kind in ("name", "num") or (kind == "op" and val == "("):
                # implicit multiplication: 2x, x y, 3(x+y)
                p = self.times(p, pos)
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "num":
            base = self.ring.const(val)
        elif kind == "name":
            base = self.ring.var(self.ring.var_index(val)) if val in self.ring._index else None
            if base is None:
                raise ParseError(f"unknown variable {val!r}", pos, self.text)
        elif kind == "op" and val == "(":
            base = self.expr()
            kind2, val2, pos2 = self.next()
            if (kind2, val2) != ("op", ")"):
                raise ParseError("expected ')'", pos2, self.text)
        elif kind == "op" and val == "-":
            return -self.factor()
        else:
            raise ParseError(f"unexpected token {val!r}", pos, self.text)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, e, pos2 = self.next()
            if kind2 != "num":
                raise ParseError("expected an integer exponent", pos2, self.text)
            if _power_terms(base, e) > _MAX_POWER_TERMS:
                raise ParseError(f"a power that expands to more than {_MAX_POWER_TERMS} terms", pos2, self.text)
            try:
                base = base ** e
            except RingError as exc:
                raise ParseError(str(exc), pos2, self.text) from exc
        return base


def parse_poly(ring: RingContext, text: str) -> Polynomial:
    return _PolyParser(ring, text).parse()


def parse_polys(ring: RingContext, text: str) -> list[Polynomial]:
    return [parse_poly(ring, part) for part in text.split(",") if part.strip()]


def parse_ideal_file(text: str) -> tuple[RingContext, list[Polynomial]]:
    """Ideal file format: ring declaration line, then `ideal:` line."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    src = "\n".join(lines)
    m = re.search(r"ideal\s*:", src)
    if not m:
        raise ParseError("ideal file needs an `ideal:` section")
    ring = parse_ring(src[: m.start()])
    gens = parse_polys(ring, src[m.end():])
    if not gens:
        raise ParseError("ideal file lists no generators")
    return ring, gens
