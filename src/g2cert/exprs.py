"""Parser for polynomial expressions and tuples of them.

Grammar (whitespace insensitive):

  tuple   := '(' expr (',' expr)* ')'
  expr    := term (('+' | '-') term)*
  term    := unary (('*' | '/') unary)*
  unary   := '-' unary | primary
  primary := atom ('^' INT)?
  atom    := INT | NAME | '(' expr ')'

Division is only allowed by subexpressions that evaluate to a nonzero
rational constant, so "2/3*e15" and "-a/2" parse while "1/x" is rejected.
A `name_map` decides what polynomial a bare NAME stands for; the catalog's
structure equations are tuples whose names include the basis symbols eIJ.
Parentheses and unary minus signs nest at most MAX_DEPTH deep.  A power
p^n has degree n * deg(p) (n for a constant p) at most MAX_EXPONENT, and so
does a product, whose degree is the sum of its factors' degrees; so every
parsed polynomial has degree at most MAX_EXPONENT, and text from a catalog
or a report fails with DslSyntaxError, not RecursionError or an expansion
of ever growing size.

An expression's terms are summed into one term map (`Polynomial.sum`), and
a term's factors are multiplied in one `Polynomial.product`, which merges
the names, integers and powers of names into one monomial before it meets
any factor of several terms.
"""

from __future__ import annotations

from .errors import DslSyntaxError
from .poly import Polynomial

_TOKEN_CHARS = set("+-*/^(),")

# How deep parentheses and unary minus signs may nest: well inside Python's
# recursion limit, since each level is a few frames of the parser.
MAX_DEPTH = 50

# The largest degree of a power or a product: the shipped catalogs and
# reports use powers of degree at most 5 and products of degree at most 8,
# and expanding (a + b + c + d)^40 takes most of a second.
MAX_EXPONENT = 16


def tokenize(text: str):
    """Yield (kind, value, position) triples; kinds: int, name, punct, end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        raise DslSyntaxError(text, i, "a number, name, or operator")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, name_map=None):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.name_map = name_map or (lambda name: Polynomial.var(name))

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, parse, pos):
        """parse() one nesting level deeper; DslSyntaxError past MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise DslSyntaxError(self.text, pos, f"at most {MAX_DEPTH} nested parentheses or signs")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expect_punct(self, ch):
        kind, value, pos = self.peek()
        if kind != "punct" or value != ch:
            raise DslSyntaxError(self.text, pos, f"{ch!r}")
        return self.advance()

    def parse_expr(self) -> Polynomial:
        return Polynomial.sum(self.signed_terms())

    def signed_terms(self):
        """Yield the terms of an expression, each negated after a '-'."""
        yield self.parse_term()
        while True:
            kind, tok, _ = self.peek()
            if kind != "punct" or tok not in "+-":
                return
            self.advance()
            term = self.parse_term()
            yield term if tok == "+" else -term

    def parse_term(self) -> Polynomial:
        factors = [self.parse_unary()]
        degree = factors[0].total_degree()
        while True:
            kind, tok, pos = self.peek()
            if kind != "punct" or tok not in "*/":
                return Polynomial.product(factors)
            self.advance()
            rhs = self.parse_unary()
            if tok == "/":
                if not rhs.is_constant() or rhs.is_zero():
                    raise DslSyntaxError(self.text, pos, "division by a nonzero rational constant")
                rhs = Polynomial.const(1 / rhs.constant_value())
            degree += rhs.total_degree()
            if degree > MAX_EXPONENT:
                raise DslSyntaxError(self.text, pos, f"a product of degree at most {MAX_EXPONENT}")
            factors.append(rhs)

    def parse_unary(self) -> Polynomial:
        kind, tok, pos = self.peek()
        if kind == "punct" and tok == "-":
            self.advance()
            return -self.nested(self.parse_unary, pos)
        return self.parse_primary()

    def parse_primary(self) -> Polynomial:
        value = self.parse_atom()
        kind, tok, _ = self.peek()
        if kind == "punct" and tok == "^":
            self.advance()
            kind, tok, pos = self.peek()
            if kind != "int":
                raise DslSyntaxError(self.text, pos, "an integer exponent")
            if int(tok) * max(1, value.total_degree()) > MAX_EXPONENT:
                raise DslSyntaxError(self.text, pos, f"a power of degree at most {MAX_EXPONENT}")
            self.advance()
            value = value ** int(tok)
        return value

    def parse_atom(self) -> Polynomial:
        kind, tok, pos = self.advance()
        if kind == "int":
            return Polynomial.const(int(tok))
        if kind == "name":
            return self.name_map(tok)
        if kind == "punct" and tok == "(":
            value = self.nested(self.parse_expr, pos)
            self.expect_punct(")")
            return value
        raise DslSyntaxError(self.text, pos, "a number, name, or '('")


def _expect_end(parser: _Parser, what: str) -> None:
    kind, _, pos = parser.peek()
    if kind != "end":
        raise DslSyntaxError(parser.text, pos, f"end of {what}")


def parse_polynomial(text: str, name_map=None) -> Polynomial:
    """Parse an expression into a Polynomial.

    `name_map` may translate bare identifiers (e.g. family parameters in
    structure equations get the fam_ prefix).
    """
    parser = _Parser(text, name_map=name_map)
    value = parser.parse_expr()
    _expect_end(parser, "expression")
    return value


def parse_tuple(text: str, name_map=None) -> list:
    """Parse '(' expr (',' expr)* ')' into one (position, Polynomial) pair
    per slot; the position is where the slot's first token starts."""
    parser = _Parser(text, name_map=name_map)
    parser.expect_punct("(")
    slots = []
    while True:
        start = parser.peek()[2]
        slots.append((start, parser.parse_expr()))
        kind, tok, pos = parser.advance()
        if kind == "punct" and tok == ")":
            break
        if kind != "punct" or tok != ",":
            raise DslSyntaxError(text, pos, "',' or ')'")
    _expect_end(parser, "tuple")
    return slots
