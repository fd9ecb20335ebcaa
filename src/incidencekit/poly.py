"""Sparse exact-coefficient multivariate polynomials over Q and Q(i).

Coefficients are `fractions.Fraction` (rationals) or `GaussianRational`
(complex numbers with rational real and imaginary parts).  Mixing the two
promotes to GaussianRational through Python's numeric protocol: Fraction's
operators return NotImplemented for a GaussianRational, so Python falls
through to GaussianRational's reflected operators, which coerce.  Code
therefore writes plain `+ - * /` on coefficients and tests zero with
`bool`.  MultiPoly speaks the same protocol (`bool` is "nonzero", `/` is
exact), so `linalg`'s elimination runs on polynomial entries too.  All
arithmetic is exact; polynomials are immutable after construction.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union


_ZERO = Fraction(0)

# The largest total degree, and so exponent, of a polynomial read from input
# (`MultiPoly.from_obj`, `parse_poly`): evaluation and the modular filter take
# one product per unit of the degree at each monomial, and substitution one
# per unit of an exponent, so a degree like 2^70 would never finish.
_DEGREE_LIMIT = 10_000


class GaussianRational:
    """Exact complex number re + im*i with rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        """Wrap parts that are already Fractions, such as the results of
        arithmetic on two GaussianRationals, without coercing them again."""
        z = object.__new__(cls)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, Fraction):
            return GaussianRational._of(value, _ZERO)
        return GaussianRational(value)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._of(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational._of(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._of(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational._of(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational._of(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers of a GaussianRational are not supported")
        result, base = GaussianRational(1), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


I_UNIT = GaussianRational(0, 1)


class InvariantError(RuntimeError):
    """An exact invariant failed: a bug in the code, never an inapplicable
    input, so callers must not turn it into a "skip"."""


def check_invariant(ok: bool, message: str) -> None:
    """Raise InvariantError unless `ok`; unlike `assert`, survives `python -O`."""
    if not ok:
        raise InvariantError(message)


Coef = Union[Fraction, GaussianRational]
Scalar = Union[int, Fraction, GaussianRational]


def _coerce_scalar(value) -> Coef:
    if isinstance(value, (Fraction, GaussianRational)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _parts(value) -> tuple:
    """(re, im) of a value of Q(i): a GaussianRational's parts, or a real
    scalar as it is and the int 0, which keeps int arithmetic in ints.
    With _real, the one reading of how a value of Q(i) is written."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return value, 0


def _real(value) -> Fraction:
    """A real scalar as a Fraction: an int, a string, a Fraction, or a
    GaussianRational whose imaginary part is 0 (its real part).  ValueError
    on a non-real value."""
    if isinstance(value, GaussianRational):
        if value.im:
            raise ValueError(f"expected a real value, got {value}")
        return value.re
    return value if isinstance(value, Fraction) else Fraction(value)


def _integer_form(vectors: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(D, rows): the least common denominator D > 0 of the entries of the
    rational vectors (ints count as rationals), and each vector v as the
    integer row D*v.  The one place, with _primitive, that clears
    denominators."""
    den = lcm(*[x.denominator for v in vectors for x in v])
    return den, [[x.numerator * (den // x.denominator) for x in v] for v in vectors]


def _primitive(v: Sequence) -> tuple[tuple, int, int]:
    """(w, a, b) with w = (a/b) v the primitive integer multiple of the
    rational vector v and a, b > 0; the zero vector gives itself, a = b."""
    a, (w,) = _integer_form([v])
    b = gcd(*w) or a
    return tuple(x // b for x in w), a, b


def _integer_parts(values: Iterable[Coef]) -> tuple[int, list[list[int]]]:
    """The Gaussian view of _integer_form: the common denominator D of the
    real and imaginary parts of `values` (Fractions or GaussianRationals),
    and the Gaussian integers D*v as [re, im] rows."""
    return _integer_form([(v.re, v.im) if isinstance(v, GaussianRational) else (v, _ZERO)
                          for v in values])


def _point_row(point: Sequence[Scalar]) -> tuple[list, set]:
    """(row, gaussian): the point's coordinates over their common denominator
    D as Gaussian integers [re, im], then (D, 0); and the indices of its
    GaussianRational coordinates.  The row every evaluation at the point
    reads, cached under the key None."""
    point = [_coerce_scalar(x) for x in point]
    den, coords = _integer_parts(point)
    return coords + [(den, 0)], {k for k, x in enumerate(point) if isinstance(x, GaussianRational)}


def _real_row(point_row: tuple[list, set]) -> tuple[list, set]:
    """`_point_row` of the real point (Re x_1, Im x_1, ..., Re x_n, Im x_n),
    read from the point's own `point_row`: the parts of each Gaussian integer
    as real ones over the same D, and no Gaussian coordinates."""
    row, _ = point_row
    return [[x, 0] for parts in row[:-1] for x in parts] + [row[-1]], set()


def _vanishes(f: "MultiPoly", point: Sequence[Scalar], cache: dict) -> bool:
    """Whether f is 0 at the point: its Gaussian-integer sum is 0."""
    re, im, _, _ = f._integer_sum(point, cache)
    return not (re or im)


def _primitive_at(polys: Iterable["MultiPoly"], point: Sequence[Scalar],
                  cache: dict) -> tuple[tuple, int, int]:
    """`_primitive` of the values of `polys` at the point, read from their
    integer sums: (w, a, b) with w = (a/b) v primitive and a, b > 0, where a
    and b need not be coprime.  ValueError on a non-real value."""
    sums = [f._integer_sum(point, cache) for f in polys]
    if any(im for _, im, _, _ in sums):
        raise ValueError("primitive vector of a non-real value")
    a = lcm(*[q for _, _, q, _ in sums])
    w = [re * (a // q) for re, _, q, _ in sums]
    b = gcd(*w) or a
    return tuple(x // b for x in w), a, b


def _term_key(exp):
    # graded lexicographic, highest first when sorted with reverse=True
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial; terms map exponent tuples to coefficients."""

    # _integer caches `_integer_terms`; _real_pair caches `cr.realify`
    __slots__ = ("num_vars", "terms", "_degree", "_integer", "_real_pair")

    def __init__(self, num_vars: int, terms: Mapping[tuple, Scalar] | None = None):
        clean = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != num_vars:
                raise ValueError("exponent vector length must equal num_vars")
            if any(e < 0 for e in exp):
                raise ValueError("exponents must be non-negative")
            c = _coerce_scalar(coef)
            if c:
                clean[exp] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(
            self, "_degree", max((sum(e) for e in clean), default=-1)
        )
        object.__setattr__(self, "_integer", None)
        object.__setattr__(self, "_real_pair", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "MultiPoly":
        return MultiPoly(num_vars, {})

    @staticmethod
    def constant(value: Scalar, num_vars: int) -> "MultiPoly":
        return MultiPoly(num_vars, {(0,) * num_vars: value})

    @staticmethod
    def variable(index: int, num_vars: int) -> "MultiPoly":
        if not 0 <= index < num_vars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if k == index else 0 for k in range(num_vars))
        return MultiPoly(num_vars, {exp: 1})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return self._degree

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    @property
    def is_gaussian(self) -> bool:
        return any(
            isinstance(c, GaussianRational) and c.im != 0 for c in self.terms.values()
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def leading_coef(self) -> Coef:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.sorted_terms()[0][1]

    # -- arithmetic ----------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly"):
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials have different variable counts")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.num_vars)
        self._check_same_vars(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, _ZERO) + coef
        return MultiPoly(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other, self.num_vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _coerce_scalar(other)
            if not c:
                return MultiPoly.zero(self.num_vars)
            return MultiPoly(self.num_vars, {e: k * c for e, k in self.terms.items()})
        self._check_same_vars(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, _ZERO) + c1 * c2
        return MultiPoly(self.num_vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact quotient: by a scalar through its reciprocal, by a
        polynomial through exact_div, which raises if it is inexact."""
        if isinstance(other, MultiPoly):
            return self.exact_div(other)
        return self * (1 / _coerce_scalar(other))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        result = MultiPoly.constant(1, self.num_vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- evaluation and calculus ----------------------------------------

    def _integer_terms(self) -> tuple:
        """(L, terms, gaussian, used): the coefficients over the lcm L of their
        denominators as Gaussian integers, one (exponent, re, im) per term with
        the exponent homogenised to the total degree d, (e_1, ..., e_n,
        d - |e|); whether a coefficient is a GaussianRational; and the
        variables that occur.  Built once per polynomial."""
        if self._integer is None:
            scale, coeffs = _integer_parts(self.terms.values())
            d = self._degree
            terms = tuple((exp + (d - sum(exp),), re, im)
                          for exp, (re, im) in zip(self.terms, coeffs))
            gaussian = any(isinstance(c, GaussianRational) for c in self.terms.values())
            used = tuple(k for k in range(self.num_vars) if self.degree_in(k) > 0)
            object.__setattr__(self, "_integer", (scale, terms, gaussian, used))
        return self._integer

    def _integer_sum(self, point: Sequence[Scalar], cache: dict) -> tuple[int, int, int, bool]:
        """(re, im, q, gaussian): the Gaussian integer re + im*i that is q times
        the value at the point, with q = L * D^d > 0 not reduced, and whether
        `evaluate` types the value as a GaussianRational.  The sum runs over
        the homogenised _integer_terms at the point's row (D*x_1, ..., D*x_n,
        D) over its common denominator D.  `cache` holds the row
        (`_point_row`) and the monomial values, for many polynomials at one
        point."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has "
                f"{self.num_vars} variables"
            )
        if None not in cache:
            cache[None] = _point_row(point)
        row, gaussian_vars = cache[None]
        scale, terms, gaussian, used = self._integer_terms()
        re = im = 0
        for exp, c_re, c_im in terms:
            mono = cache.get(exp)
            if mono is None:
                m_re, m_im = 1, 0
                for (a, b), e in zip(row, exp):
                    for _ in range(e):
                        m_re, m_im = m_re * a - m_im * b, m_re * b + m_im * a
                mono = cache[exp] = (m_re, m_im)
            re += c_re * mono[0] - c_im * mono[1]
            im += c_re * mono[1] + c_im * mono[0]
        q = scale * row[-1][0] ** max(self._degree, 0)
        return re, im, q, gaussian or not gaussian_vars.isdisjoint(used)

    def evaluate(self, point: Sequence[Scalar], _cache: dict | None = None) -> Coef:
        """Exact value at a point of rationals / Gaussian rationals: the
        Gaussian-integer sum of `_integer_sum` divided once by its scale.
        The value is a GaussianRational when a coefficient is one or a
        variable that occurs has a GaussianRational coordinate.  Questions
        with integer answers (is it zero?  which primitive direction?) read
        the sum directly, through `_vanishes` and `_primitive_at`.

        `_cache`, when given, memoizes the row and monomial values for
        repeated evaluation of many polynomials at the same point.  A zero
        value is the shared `_ZERO`, or a GaussianRational of two of them.
        """
        re, im, q, gaussian = self._integer_sum(point, {} if _cache is None else _cache)
        if not (re or im):
            return GaussianRational._of(_ZERO, _ZERO) if gaussian else _ZERO
        if gaussian:
            return GaussianRational._of(Fraction(re, q), Fraction(im, q))
        return Fraction(re, q)

    def partial(self, var: int) -> "MultiPoly":
        """Exact formal partial derivative in variable `var`."""
        if not 0 <= var < self.num_vars:
            raise ValueError("variable index out of range")
        terms = {}
        for exp, coef in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = exp[:var] + (e - 1,) + exp[var + 1:]
            terms[new] = terms.get(new, Fraction(0)) + coef * e
        return MultiPoly(self.num_vars, terms)

    def substitute(self, replacements: Sequence["MultiPoly"]) -> "MultiPoly":
        """Compose: replace variable k by replacements[k] (all sharing a
        common variable count, which becomes the result's)."""
        if len(replacements) != self.num_vars:
            raise ValueError("need one replacement per variable")
        nv = replacements[0].num_vars
        for r in replacements:
            if r.num_vars != nv:
                raise ValueError("replacements must share a variable count")
        # cache replacement powers
        powers = [{0: MultiPoly.constant(1, nv)} for _ in replacements]
        result = MultiPoly.zero(nv)
        for exp, coef in self.sorted_terms():
            term = MultiPoly.constant(coef, nv)
            for k, e in enumerate(exp):
                if e:
                    cache = powers[k]
                    if e not in cache:
                        top = max(cache)
                        cur = cache[top]
                        for j in range(top + 1, e + 1):
                            cur = cur * replacements[k]
                            cache[j] = cur
                    term = term * cache[e]
            result = result + term
        return result

    # -- univariate views ------------------------------------------------

    def as_univariate(self, var: int) -> list["MultiPoly"]:
        """Coefficients (ascending in `var`) as polynomials in the other
        variables; coefficient polys keep the same variable count with
        `var`-exponent zero."""
        d = self.degree_in(var)
        coeffs = [dict() for _ in range(d + 1)] if d >= 0 else [dict()]
        for exp, coef in self.terms.items():
            e = exp[var]
            rest = exp[:var] + (0,) + exp[var + 1:]
            coeffs[e][rest] = coef
        return [MultiPoly(self.num_vars, c) for c in coeffs]

    def univariate_coeffs(self) -> list[Fraction]:
        """Dense ascending coefficient list; requires a single effective
        variable and rational coefficients."""
        active = [k for k in range(self.num_vars) if self.degree_in(k) > 0]
        if len(active) > 1:
            raise ValueError("polynomial is not univariate")
        var = active[0] if active else 0
        d = max(self.degree_in(var), 0)
        out = [Fraction(0)] * (d + 1)
        for exp, coef in self.terms.items():
            out[exp[var]] = _real(coef)
        return out

    # -- division ---------------------------------------------------------

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / divisor; raises if the division is inexact."""
        self._check_same_vars(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem_terms = dict(self.terms)
        quot: dict = {}
        lt_exp, lt_coef = divisor.sorted_terms()[0]
        while rem_terms:
            r_exp, r_coef = max(rem_terms.items(), key=lambda t: _term_key(t[0]))
            q_exp = tuple(a - b for a, b in zip(r_exp, lt_exp))
            if any(e < 0 for e in q_exp):
                raise ValueError("inexact polynomial division")
            q_coef = r_coef / lt_coef
            quot[q_exp] = q_coef
            for d_exp, d_coef in divisor.terms.items():
                exp = tuple(a + b for a, b in zip(q_exp, d_exp))
                s = rem_terms.get(exp, Fraction(0)) - q_coef * d_coef
                if s:
                    rem_terms[exp] = s
                else:
                    rem_terms.pop(exp, None)
        return MultiPoly(self.num_vars, quot)

    # -- canonical key -------------------------------------------------------

    def _key(self) -> frozenset:
        """The curve de-duplication key: equal for f and c*f, c != 0 in Q(i),
        and only for them.  Each Gaussian integer re + im*i of
        `_integer_terms` times the conjugate a - b*i of the leading term's
        (graded lex), all parts over their gcd, as a set of (homogenised
        exponent, re, im).  The coefficients of c*f there are m times those
        of f for some m in Q(i), so the products are |m|^2 times f's and
        the primitive result is the same; for a rational f it is f's
        primitive form with a positive leading coefficient.  Nonzero
        polynomials only."""
        terms = self._integer_terms()[1]
        _, a, b = max(terms, key=lambda t: (-t[0][-1], t[0]))
        rows = [(exp, re * a + im * b, im * a - re * b) for exp, re, im in terms]
        g = gcd(*[x for _, re, im in rows for x in (re, im)])
        return frozenset((exp, re // g, im // g) for exp, re, im in rows)

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "vars": self.num_vars,
            "field": "Q(i)" if self.is_gaussian else "Q",
            "terms": [
                {"exp": list(exp), "coef": coef_to_obj(coef)}
                for exp, coef in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_obj(obj: dict, _memo: dict | None = None) -> "MultiPoly":
        """The polynomial `to_obj` writes.  ValueError on a `vars` or an
        exponent that is not an int (a bool is not one), on an exponent
        given twice and on a coefficient `coef_from_obj` rejects; `_memo` is
        handed to `coef_from_obj`."""
        nv = obj["vars"]
        if type(nv) is not int:
            raise ValueError(f"vars must be an int, got {nv!r}")
        terms = {}
        for t in obj.get("terms", []):
            exp = tuple(t["exp"])
            if any(type(e) is not int for e in exp):
                raise ValueError(f"exponents must be ints, got {t['exp']!r}")
            if exp in terms:
                raise ValueError(f"exponent {list(exp)} given twice")
            terms[exp] = coef_from_obj(t["coef"], _memo)
        return _check_degree(MultiPoly(nv, terms))

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MultiPoly":
        return MultiPoly.from_obj(json.loads(text))

    def __repr__(self):
        return f"MultiPoly({self.num_vars}, {self.format()!r})"

    def format(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{k}" for k in range(self.num_vars)]
        parts = []
        for exp, coef in self.sorted_terms():
            mono = "*".join(
                f"{names[k]}^{e}" if e > 1 else names[k]
                for k, e in enumerate(exp)
                if e
            )
            cs = str(coef)
            parts.append(f"({cs})*{mono}" if mono else f"({cs})")
        return " + ".join(parts)


def _check_degree(f: MultiPoly) -> MultiPoly:
    """f, once its total degree is at most _DEGREE_LIMIT; ValueError otherwise."""
    if f.total_degree > _DEGREE_LIMIT:
        raise ValueError(f"degree {f.total_degree} exceeds the limit {_DEGREE_LIMIT}")
    return f


def coef_to_obj(coef: Coef):
    if isinstance(coef, GaussianRational):
        if coef.im == 0:
            return f"{coef.re.numerator}/{coef.re.denominator}"
        return {
            "re": f"{coef.re.numerator}/{coef.re.denominator}",
            "im": f"{coef.im.numerator}/{coef.im.denominator}",
        }
    return f"{coef.numerator}/{coef.denominator}"


def coef_from_obj(obj, _memo: dict | None = None) -> Coef:
    """A coefficient or coordinate as a file writes it: an int, a string
    that `Fraction` reads ("a/b"), or {"re": ..., "im": ...} of two of them.
    ValueError on any other number, such as a bool or a float.  `_memo`,
    when given, maps each string already read to its Fraction, so one load
    parses each distinct string once and equal strings share one object."""
    memo = {} if _memo is None else _memo
    if isinstance(obj, dict):
        return GaussianRational._of(_rational_from_obj(obj["re"], memo),
                                    _rational_from_obj(obj["im"], memo))
    return _rational_from_obj(obj, memo)


def _rational_from_obj(obj, memo: dict) -> Fraction:
    if isinstance(obj, str):
        value = memo.get(obj)
        if value is None:
            value = memo[obj] = Fraction(obj)
        return value
    if type(obj) is not int:
        raise ValueError(f"a number must be an int or a string 'a/b', got {obj!r}")
    return Fraction(obj)


# -- free functions mirroring the kernel operations --------------------------


def gradient(p: MultiPoly, point: Sequence[Scalar]) -> list[Coef]:
    if len(point) != p.num_vars:
        raise ValueError("point length must equal the variable count")
    return [p.partial(k).evaluate(point) for k in range(p.num_vars)]


def resultant(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Sylvester resultant eliminating `var`, as `linalg.det` of the Sylvester
    matrix (diagonal when one side is constant in `var`).

    Zero iff f and g share a factor of positive degree in `var`.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero polynomial is undefined here")
    f._check_same_vars(g)
    df, dg = f.degree_in(var), g.degree_in(var)
    if df <= 0 and dg <= 0:
        raise ValueError("both polynomials are constant in the eliminated variable")
    zero = MultiPoly.zero(f.num_vars)
    rows = []
    # dg shifted rows of f's coefficients, then df of g's, in descending order
    for coeffs, d, copies in ((f.as_univariate(var), df, dg), (g.as_univariate(var), dg, df)):
        for i in range(copies):
            row = [zero] * (df + dg)
            for j, c in enumerate(coeffs):
                row[i + d - j] = c
            rows.append(row)
    from .linalg import det

    return det(rows)


def jacobian_rank(polys: Iterable[MultiPoly], point: Sequence[Scalar]) -> int:
    """Exact rank of the stacked gradient matrix at a point."""
    polys = list(polys)
    if not polys:
        return 0
    rows = [gradient(p, point) for p in polys]
    from .linalg import rank

    return rank(rows)


# -- expression parsing (CLI input like "z1^3 + i*z1") ------------------------

def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse an arithmetic expression into a MultiPoly.

    Supports + - * / ^ (and **), integer and rational literals, the
    imaginary unit `i`, and the given variable names.
    """
    nv = len(variables)
    env = {
        name: MultiPoly.variable(k, nv) for k, name in enumerate(variables)
    }
    env["i"] = MultiPoly.constant(I_UNIT, nv)
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from exc

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Pow):
                if not isinstance(right, MultiPoly) or right.total_degree > 0:
                    raise ValueError("exponent must be a constant")
                e = _real(right.terms.get((0,) * nv, _ZERO))
                if e.denominator != 1 or e < 0:
                    raise ValueError("exponent must be a non-negative integer")
                if e > _DEGREE_LIMIT:
                    raise ValueError(f"exponent {e} exceeds the limit {_DEGREE_LIMIT}")
                return left ** int(e)
            if isinstance(node.op, ast.Div):
                if right.total_degree > 0:
                    raise ValueError("can only divide by a constant")
                c = right.terms.get((0,) * nv)
                if c is None:
                    raise ValueError("division by zero")
                return left / c
            raise ValueError(f"unsupported operator {node.op!r}")
        if isinstance(node, ast.UnaryOp):
            val = walk(node.operand)
            if isinstance(node.op, ast.USub):
                return -val
            if isinstance(node.op, ast.UAdd):
                return val
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return MultiPoly.constant(node.value, nv)
            raise ValueError(f"unsupported literal {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ValueError(f"unknown variable {node.id!r}")
        raise ValueError(f"unsupported syntax {ast.dump(node)}")

    return _check_degree(walk(tree))
