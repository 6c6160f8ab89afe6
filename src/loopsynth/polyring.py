"""Exact multivariate polynomial arithmetic over the rationals.

Every rational, coefficient or value, is kept in one form: an int when it
is integral and a `fractions.Fraction` otherwise.  as_rational is the one
coercion to that form; floats are rejected.  A VarContext fixes an ordered
variable universe split into blocks: program variables first, then
coefficient variables, then an optional auxiliary variable, which always
sits last.  Monomials are dense exponent tuples indexed by that order,
and polynomials are immutable dicts from exponent tuple to nonzero
coefficient.  The checking constructor Polynomial(...) is for input from
outside.  Ring operations build on two term-dict kernels, _add_into and
_mul_terms; compose, the one ring map, runs on the kernel _compose.

The text format read by parse_polynomial and produced by str()/
format_polynomial is:

    expr     := ['-' | '+'] term (('+' | '-') term)*
    term     := factor (('*' factor) | ('/' INT))*
    factor   := atom ['^' INT]
    atom     := INT | NAME | '(' expr ')'

INT is a run of ASCII digits.  Multiplication is always explicit,
exponents are nonnegative integers, and division is only allowed by a
nonzero integer literal (x/2, 3/4*x).
Printing uses the degrevlex order, largest term first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]  # the one rational form, as_rational's


class ContextMismatchError(ValueError):
    """Operands belong to different variable contexts."""


class ParseError(ValueError):
    """Text did not match the polynomial (or problem file) grammar."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def as_rational(value) -> Coeff:
    """Coerce int, Fraction, or a string like '-3/4' to the one rational
    form: int when integral, Fraction otherwise.

    Floats are rejected on purpose: this package is exact end to end.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
        return as_rational(value)
    raise TypeError(f"not a rational: {value!r} (floats are rejected; use Fraction)")


def _int_when_integral(terms: dict, a: Iterable, b: Iterable) -> dict:
    # terms, made from the coefficients a and b, in as_rational's form.
    # Ints alone only make ints, so the terms are rescanned only when a
    # Fraction took part.
    if Fraction in map(type, a) or Fraction in map(type, b):
        return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    return terms


def _add_into(acc: dict, terms: Iterable) -> dict:
    # acc plus the (monomial, nonzero coefficient) pairs of terms; a sum
    # that cancels drops its monomial
    get = acc.get
    for e, c in terms:
        s = get(e, 0) + c
        if s:
            acc[e] = s
        else:
            del acc[e]
    return acc


def _mul_terms(a: dict, b: dict) -> dict:
    # the product of two terms dicts, before _int_when_integral
    acc: dict = {}
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


_IDENT_OK = str.isidentifier


@dataclass(frozen=True)
class VarContext:
    """Ordered, block-structured variable universe shared by polynomials.

    Blocks, in order: x_names (program variables), y_names (coefficient
    variables), t_name (auxiliary, e.g. the radical membership witness).
    Names are unique identifiers; the total order is fixed at construction
    and indexes every exponent tuple.
    """

    x_names: tuple[str, ...]
    y_names: tuple[str, ...] = ()
    t_name: str | None = None
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for block, names in (("x_names", self.x_names), ("y_names", self.y_names)):
            if isinstance(names, str):  # not split into letters
                raise ValueError(f"{block} must be a sequence of names, not {names!r}")
        names = tuple(self.x_names) + tuple(self.y_names)
        if self.t_name is not None:
            names += (self.t_name,)
        for n in names:
            if not isinstance(n, str) or not _IDENT_OK(n):
                raise ValueError(f"bad variable name: {n!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        object.__setattr__(self, "names", names)

    @property
    def arity(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in context {self.names}") from None

    def with_t(self) -> "VarContext":
        """Extend with a fresh trailing auxiliary variable."""
        if self.t_name is not None:
            raise ValueError("context already has an auxiliary variable")
        return VarContext(self.x_names, self.y_names, fresh_name("t", self.names))

    def restrict(self, keep: Iterable[str]) -> "VarContext":
        """Sub-context with only the given names, block roles preserved."""
        keep = set(keep)
        unknown = keep - set(self.names)
        if unknown:
            raise KeyError(f"unknown variables {sorted(unknown)}")
        return VarContext(
            tuple(n for n in self.x_names if n in keep),
            tuple(n for n in self.y_names if n in keep),
            self.t_name if self.t_name in keep else None,
        )


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """base, then base_, base__, ... until it avoids every taken name."""
    taken = set(taken)
    name = base
    while name in taken:
        name += "_"
    return name


# ---------------------------------------------------------------------------
# Monomial helpers.  A monomial is a dense tuple of nonnegative ints.

Monomial = tuple


@dataclass(frozen=True)
class MonomialOrder:
    """Admissible term order, exposed as an ascending sort key on exponents.

    kinds: 'degrevlex' (default everywhere) and 'lex'.  Keys are flat int
    tuples, so elementwise negation inverts the order.
    """

    kind: str

    def key(self, expo: Monomial) -> tuple:
        kind = self.kind
        if kind == "degrevlex":
            return (sum(expo), *[-e for e in reversed(expo)])
        if kind == "lex":
            return tuple(expo)
        raise ValueError(f"unknown order kind {kind!r}")


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


class Polynomial:
    """Immutable sparse polynomial over a VarContext.

    terms maps exponent tuples to nonzero coefficients; treat it as
    read-only.  All arithmetic is exact.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: VarContext, terms: Mapping[Monomial, Coeff] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        arity = context.arity
        clean: dict = {}
        for expo, c in items:
            expo = tuple(expo)
            if len(expo) != arity:
                raise ValueError(f"exponent tuple {expo} does not match arity {arity}")
            if any(type(e) is not int or e < 0 for e in expo):  # bool is no exponent
                raise ValueError(f"exponents must be nonnegative ints: {expo}")
            c = as_rational(c)
            if c:
                _add_into(clean, ((expo, c),))
        object.__setattr__(self, "context", context)
        # repeated monomials can sum Fractions to an integral one
        object.__setattr__(self, "terms", _int_when_integral(clean, clean.values(), ()))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(context: VarContext) -> "Polynomial":
        return Polynomial(context)

    @staticmethod
    def one(context: VarContext) -> "Polynomial":
        return Polynomial.constant(context, 1)

    @staticmethod
    def constant(context: VarContext, c) -> "Polynomial":
        return Polynomial(context, {(0,) * context.arity: c})

    @staticmethod
    def variable(context: VarContext, name: str) -> "Polynomial":
        i = context.index(name)
        expo = tuple(1 if j == i else 0 for j in range(context.arity))
        return Polynomial(context, {expo: 1})

    @staticmethod
    def variables(context: VarContext) -> list["Polynomial"]:
        return [Polynomial.variable(context, n) for n in context.names]

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def uses(self, name: str) -> bool:
        i = self.context.index(name)
        return any(e[i] for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: DEGREVLEX.key(kv[0]), reverse=True)

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = DEGREVLEX) -> Coeff:
        return self.terms[self.leading_monomial(order)]

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.context == other.context and self.terms == other.terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Polynomial.constant(self.context, other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        if self.total_degree() <= 0:
            return hash(self.terms.get((0,) * self.context.arity, 0))
        return hash((self.context, frozenset(self.terms.items())))

    # -- ring operations ----------------------------------------------------

    def _operand(self, other) -> "Polynomial | None":
        # a number or a Polynomial over this context as a Polynomial
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.context, other)
        if not isinstance(other, Polynomial):
            return None
        if self.context != other.context:
            raise ContextMismatchError(
                f"contexts differ: {self.context.names} vs {other.context.names}")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._wrap(_int_when_integral(_add_into(dict(self.terms), other.terms.items()),
                                             self.terms.values(), other.terms.values()))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._wrap(_int_when_integral(_mul_terms(self.terms, other.terms),
                                             self.terms.values(), other.terms.values()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * Fraction(q.denominator, q.numerator)
        return NotImplemented

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:  # bool is no exponent
            raise ValueError("polynomial powers take nonnegative int exponents")
        result = Polynomial.one(self.context)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _wrap(self, terms: dict) -> "Polynomial":
        return Polynomial._trusted(self.context, terms)

    @staticmethod
    def _trusted(context: VarContext, terms: dict) -> "Polynomial":
        # Internal: terms already normalized (no zeros, right arity).
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "context", context)
        object.__setattr__(p, "terms", terms)
        return p

    # -- evaluation and composition -----------------------------------------

    def evaluate(self, point: Mapping[str, object]) -> Coeff:
        """Exact value at a fully specified rational point."""
        vals = []
        for n in self.context.names:
            if n not in point:
                raise KeyError(f"evaluate: no value for variable {n!r}")
            vals.append(as_rational(point[n]))
        total = 0
        for expo, c in self.terms.items():
            term = c
            for v, e in zip(vals, expo):
                if e:
                    term *= v ** e
            total += term
        return as_rational(total)

    def compose(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute a polynomial for every variable (one image per context
        variable, all images over one common target context)."""
        images = list(images)
        if len(images) != self.context.arity:
            raise ValueError(
                f"compose needs {self.context.arity} images, got {len(images)}")
        if not images:
            raise ValueError("compose is not defined over an empty context")
        tgt = images[0].context
        if any(im.context != tgt for im in images):
            raise ContextMismatchError("compose images must share one context")
        return self._compose(tgt, [im.terms for im in images])

    def _compose(self, tgt: VarContext, images: list[dict]) -> "Polynomial":
        # The composition kernel: images[i], a terms dict over tgt, replaces
        # variable i.  Powers of each image are cached as terms dicts.
        zero = (0,) * tgt.arity
        powers = [[{zero: 1}, im] for im in images]
        acc: dict = {}
        for expo, c in self.terms.items():
            prod = {zero: c}
            for cache, im, e in zip(powers, images, expo):
                if e:
                    while len(cache) <= e:
                        cache.append(_mul_terms(cache[-1], im))
                    prod = _mul_terms(prod, cache[e])
            _add_into(acc, prod.items())
        return Polynomial._trusted(tgt, _int_when_integral(
            acc, self.terms.values(), chain.from_iterable(im.values() for im in images)))

    def extend_context(self, new_context: VarContext) -> "Polynomial":
        """Re-express over a larger context containing all current names."""
        try:
            pos = [new_context.index(n) for n in self.context.names]
        except KeyError as exc:
            raise ContextMismatchError(str(exc)) from None
        arity = new_context.arity
        acc = {}
        for expo, c in self.terms.items():
            e2 = [0] * arity
            for p, e in zip(pos, expo):
                e2[p] = e
            acc[tuple(e2)] = c
        return Polynomial._trusted(new_context, acc)

    # -- normal forms for output --------------------------------------------

    def content(self) -> Coeff:
        """Positive rational content: gcd of numerators / lcm of denominators."""
        cs = self.terms.values()
        return as_rational(Fraction(gcd(*[c.numerator for c in cs]),
                                    lcm(*[c.denominator for c in cs])))

    def primitive_part(self, order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        """Divide by the content and fix the sign so the leading coefficient
        is positive; integer coefficients with gcd 1 result."""
        return self._primitive_at(self.leading_monomial(order)) if self.terms else self

    def _primitive_at(self, lm: Monomial) -> "Polynomial":
        # the primitive part, signed so the coefficient at lm is positive
        c = self.content()
        n, d = c.numerator, c.denominator
        if self.terms[lm] < 0:
            n = -n
        # x / (n/d) in exact integer arithmetic, so the coefficients stay int
        return self._wrap({e: x.numerator * (d // x.denominator) // n
                           for e, x in self.terms.items()})

    # -- printing ------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<poly {self} over {self.context.names}>"


# ---------------------------------------------------------------------------
# Text rendering and parsing (grammar in the module docstring).


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    names = p.context.names
    out = []
    for expo, c in p.sorted_terms():
        neg = c < 0
        mag = -c if neg else c
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(expo) if e]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


_TOKEN_OPS = set("+-*^()/")


def _tokenize(text: str):
    """Yield (kind, value, line, col) with 1-based positions."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _TOKEN_OPS:
            yield ("op", ch, line, col)
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":  # not isdigit(), which takes ² that int() rejects
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            yield ("int", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("end", "", line, col)


class _Parser:
    def __init__(self, text: str, context: VarContext):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.context = context

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, line, col = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", line, col)

    def parse(self) -> Polynomial:
        kind, _, line, col = self.peek()
        if kind == "end":
            raise ParseError("empty polynomial", line, col)
        p = self.expr()
        kind, val, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", line, col)
        return p

    def expr(self) -> Polynomial:
        kind, val, _, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
        p = -self.term() if kind == "op" and val == "-" else self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind == "op" and val == "/":
                self.take()
                kind, val, line, col = self.take()
                if kind != "int" or int(val) == 0:
                    raise ParseError("divisor must be a nonzero integer",
                                     line, col)
                p = p / int(val)
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.atom()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, line, col = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", line, col)
            p = p ** int(val)
        return p

    def atom(self) -> Polynomial:
        kind, val, line, col = self.take()
        if kind == "int":
            return Polynomial.constant(self.context, int(val))
        if kind == "name":
            if val not in self.context:
                raise ParseError(f"unknown variable {val!r}", line, col)
            return Polynomial.variable(self.context, val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input",
                         line, col)


def parse_polynomial(text: str, context: VarContext) -> Polynomial:
    """Parse the documented grammar; raises ParseError with line:col."""
    return _Parser(text, context).parse()
