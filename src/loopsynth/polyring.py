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

INT is a run of at most MAX_DIGITS (4,300) ASCII digits.  Multiplication
is always explicit, exponents are nonnegative integers, division is only
allowed by a nonzero integer literal (x/2, 3/4*x), parentheses nest at most
MAX_NESTING deep, and a product or power that could expand past MAX_TERMS
terms, or grow a coefficient past MAX_BITS bits, is refused, as is one
that takes a text's expansions past MAX_WORK term products (the texts
of one problem file share one allowance).
Printing uses the degrevlex order, largest term first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm, prod
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .budget import BudgetExceeded

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
        if value.isascii() and "_" not in value:  # Fraction() takes '١' and '1_0'
            try:
                return as_rational(Fraction(value.strip()))
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f"not a rational literal: {value!r}")
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

    @staticmethod
    def combination(context: VarContext, polys: Sequence["Polynomial"],
                    coeffs: Sequence) -> "Polynomial":
        """sum of coeffs[i] * polys[i], all polys over context, summed into
        one terms dict."""
        if len(polys) != len(coeffs):
            raise ValueError(f"{len(polys)} polynomials but {len(coeffs)} coefficients")
        acc: dict = {}
        for p, v in zip(polys, map(as_rational, coeffs)):
            if p.context != context:
                raise ContextMismatchError(
                    f"contexts differ: {context.names} vs {p.context.names}")
            if v:
                _add_into(acc, ((e, c * v) for e, c in p.terms.items()))
        return Polynomial._trusted(context, _int_when_integral(acc, acc.values(), ()))

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
        """Exact value at a fully specified rational point.  Raises
        BudgetExceeded rather than raise a value to a power past 64 whose
        result could pass MAX_POWER_BITS bits (0, 1 and -1 take any power)."""
        vals = []
        for n in self.context.names:
            if n not in point:
                raise KeyError(f"evaluate: no value for variable {n!r}")
            v = point[n]
            vals.append(v if type(v) is int else as_rational(v))
        if len(self.terms) <= 1 and not any(next(iter(self.terms), ())):  # 0 or c
            return next(iter(self.terms.values()), 0)
        total = 0
        for expo, c in self.terms.items():
            term = c
            for v, e in zip(vals, expo):
                if e:
                    # most e are small; v^e's parts have at most e*(b+1) bits
                    if e > 64 and (b := _log2(v)) and e * (b + 1) > MAX_POWER_BITS:
                        raise BudgetExceeded(
                            f"evaluate: a power could pass {MAX_POWER_BITS}-bit values")
                    term *= v ** e
            total += term
        return total if type(total) is int else as_rational(total)

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


MAX_NESTING = 100  # parenthesis depth; a level takes 4 frames of the parser
MAX_TERMS = 1000  # terms of an expanded product or power
MAX_BITS = 10_000  # log2 of a coefficient of an expanded product or power
MAX_WORK = MAX_TERMS ** 2  # term products one parser's texts may spend on expansions
MAX_DIGITS = 4300  # digits of an INT, Python's default int() string limit
MAX_POWER_BITS = 1_000_000  # bits of a power past the 64th that evaluate computes


def _log2(c: Coeff) -> int:
    # floor(log2) of c's numerator or denominator, whichever is larger
    # (0 for 0, 1 and -1)
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1


def _bits(p: Polynomial) -> int:
    # the largest _log2 of p's coefficients (0 for no terms); the parser
    # takes the sum of the factors' as a product's estimate
    return max(map(_log2, p.terms.values()), default=0)


# One group per token kind; finditer skips the spaces that no group takes.
# [0-9], not \d, which takes ² that int() rejects.  \w is str.isalnum() or
# '_', but a name starts with a letter (str.isalpha()) or '_', checked below.
_TOKEN = re.compile(r"(?P<op>[-+*^()/])|(?P<int>[0-9]+)|(?P<name>\w+)|(?P<nl>\n)|(?P<bad>\S)")


def _tokenize(text: str, line: int = 1, col: int = 1) -> list:
    """(kind, value, line, col) tuples with 1-based positions, text starting
    at line:col, ending in an ("end", "", line, col) token."""
    tokens, start = [], 1 - col  # start: the offset of the line's column 1
    for m in _TOKEN.finditer(text):
        kind, val, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "nl":
            line, start = line + 1, m.end()
        elif kind == "bad" or kind == "name" and not (val[0].isalpha() or val[0] == "_"):
            raise ParseError(f"unexpected character {val[0]!r}", line, col)
        elif kind == "int" and len(val) > MAX_DIGITS:
            raise ParseError(f"integer literal past {MAX_DIGITS} digits", line, col)
        else:
            tokens.append((kind, val, line, col))
    tokens.append(("end", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    # reads texts over one context; the texts share one work allowance
    def __init__(self, context: VarContext):
        self.work = MAX_WORK
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

    def admit(self, factors: Sequence[Polynomial], k: int, line: int, col: int) -> None:
        # called once before the product of two factors (k = 1), or the k-th
        # power of one, is expanded.  f^k has at most one term per way to
        # choose k of f's terms with repetition (0^k has none, 0^0 one), and
        # the result at most one per monomial of its degree or less; it is
        # refused if both pass MAX_TERMS.  Both grow with k, and for f of 2
        # or more terms both pass MAX_TERMS at k = MAX_TERMS + 1, so j
        # decides as k would, without a huge binomial.  A coefficient that
        # could pass MAX_BITS bits is refused unless it is no larger than a
        # factor's.  A product costs its term products, a power by repeated
        # squaring about the square of its term bound; the expansions of
        # all the texts this parser reads may cost MAX_WORK.
        j = min(k, MAX_TERMS + 1)
        terms = work = prod(comb(len(f) + j - 1, j) if f else 0 ** j for f in factors)
        if terms > MAX_TERMS:
            n = self.context.arity
            degree = j * sum(f.total_degree() for f in factors)
            if (terms := comb(n + degree, n)) > MAX_TERMS:
                raise ParseError(f"expansion could pass {MAX_TERMS} terms", line, col)
        bits = [_bits(f) for f in factors]
        if k * sum(bits) > max(MAX_BITS, *bits):
            raise ParseError(f"expansion could pass {MAX_BITS}-bit coefficients", line, col)
        self.work -= terms * terms if k > 1 else work
        if self.work < 0:
            raise ParseError(f"expansions could pass {MAX_WORK} term products", line, col)

    def parse(self, text: str, line: int = 1, col: int = 1) -> Polynomial:
        self.tokens, self.pos, self.depth = _tokenize(text, line, col), 0, 0
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
            kind, val, line, col = self.peek()
            if kind == "op" and val == "*":
                self.take()
                q = self.factor()
                self.admit((p, q), 1, line, col)
                p = p * q
            elif kind == "op" and val == "/":
                self.take()
                kind, val, line, col = self.take()
                if kind != "int" or (d := int(val)) == 0:
                    raise ParseError("divisor must be a nonzero integer",
                                     line, col)
                p = p / d
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.atom()
        kind, val, line, col = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, eline, ecol = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", eline, ecol)
            k = int(val)
            self.admit((p,), k, line, col)
            p = p ** k
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
            self.depth += 1
            if self.depth > MAX_NESTING:  # before Python's recursion limit
                raise ParseError(f"parentheses nested past {MAX_NESTING}", line, col)
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input",
                         line, col)


def parse_polynomial(text: str, context: VarContext) -> Polynomial:
    """Parse the documented grammar; raises ParseError with line:col."""
    return _Parser(context).parse(text)
