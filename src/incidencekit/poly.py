"""Sparse exact-coefficient multivariate polynomials over Q and Q(i).

Coefficients are `fractions.Fraction` (rationals) or `GaussianRational`
(complex numbers with rational real and imaginary parts).  Mixing the two
promotes to GaussianRational through Python's numeric protocol: Fraction's
operators return NotImplemented for a GaussianRational, so Python falls
through to GaussianRational's reflected operators, which coerce.  Code
therefore writes plain `+ - * /` on coefficients and tests zero with
`bool`.  All arithmetic is exact; polynomials are immutable after
construction.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


_ZERO = Fraction(0)


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

    @property
    def is_real(self) -> bool:
        return self.im == 0

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


def _term_key(exp):
    # graded lexicographic, highest first when sorted with reverse=True
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial; terms map exponent tuples to coefficients."""

    __slots__ = ("num_vars", "terms", "_degree")

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
            s = terms.get(exp, Fraction(0)) + coef
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
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
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
        return MultiPoly(self.num_vars, terms)

    __rmul__ = __mul__

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

    def evaluate(self, point: Sequence[Scalar], _cache: dict | None = None) -> Coef:
        """Exact value at a point of rationals / Gaussian rationals.

        `_cache`, when given, memoizes monomial values for repeated
        evaluation of many polynomials at the same point.
        """
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has "
                f"{self.num_vars} variables"
            )
        point = [_coerce_scalar(x) for x in point]
        total: Coef = Fraction(0)
        for exp, coef in self.terms.items():
            if _cache is not None and exp in _cache:
                mono = _cache[exp]
            else:
                mono: Coef = Fraction(1)
                for x, e in zip(point, exp):
                    if e:
                        mono = mono * x**e
                if _cache is not None:
                    _cache[exp] = mono
            total = total + coef * mono
        return total

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
            if isinstance(coef, GaussianRational):
                if coef.im != 0:
                    raise ValueError("polynomial has non-real coefficients")
                coef = coef.re
            out[exp[var]] = coef
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

    # -- normalization -----------------------------------------------------

    def normalized(self) -> "MultiPoly":
        """Scalar-canonical form: content cleared, leading coefficient made 1
        (Gaussian case) or positive with coprime integer coefficients
        (rational case).  Used for curve deduplication and hashing; plain
        arithmetic never normalizes."""
        if self.is_zero:
            return self
        if self.is_gaussian:
            lead = GaussianRational.coerce(self.leading_coef())
            return self * (GaussianRational(1) / lead)
        fracs = {e: Fraction(c.re) if isinstance(c, GaussianRational) else c
                 for e, c in self.terms.items()}
        from math import gcd

        num_gcd = 0
        den_lcm = 1
        for c in fracs.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        scale = Fraction(den_lcm, num_gcd)
        lead = self.leading_coef()
        lead = lead.re if isinstance(lead, GaussianRational) else lead
        if lead < 0:
            scale = -scale
        return MultiPoly(self.num_vars, {e: c * scale for e, c in fracs.items()})

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
    def from_obj(obj: dict) -> "MultiPoly":
        nv = int(obj["vars"])
        terms = {
            tuple(t["exp"]): coef_from_obj(t["coef"]) for t in obj.get("terms", [])
        }
        return MultiPoly(nv, terms)

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


def coef_to_obj(coef: Coef):
    if isinstance(coef, GaussianRational):
        if coef.im == 0:
            return f"{coef.re.numerator}/{coef.re.denominator}"
        return {
            "re": f"{coef.re.numerator}/{coef.re.denominator}",
            "im": f"{coef.im.numerator}/{coef.im.denominator}",
        }
    return f"{coef.numerator}/{coef.denominator}"


def coef_from_obj(obj) -> Coef:
    if isinstance(obj, dict):
        return GaussianRational(Fraction(obj["re"]), Fraction(obj["im"]))
    return Fraction(obj)


# -- free functions mirroring the kernel operations --------------------------


def poly_eval(p: MultiPoly, point: Sequence[Scalar]) -> Coef:
    return p.evaluate(point)


def gradient(p: MultiPoly, point: Sequence[Scalar]) -> list[Coef]:
    if len(point) != p.num_vars:
        raise ValueError("point length must equal the variable count")
    return [p.partial(k).evaluate(point) for k in range(p.num_vars)]


def resultant(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Sylvester resultant eliminating `var`.

    Zero iff f and g share a factor of positive degree in `var`.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero polynomial is undefined here")
    f._check_same_vars(g)
    df, dg = f.degree_in(var), g.degree_in(var)
    if df <= 0 and dg <= 0:
        raise ValueError("both polynomials are constant in the eliminated variable")
    nv = f.num_vars
    fc = f.as_univariate(var)
    gc = g.as_univariate(var)
    if df <= 0:
        return fc[0] ** dg
    if dg <= 0:
        return gc[0] ** df
    size = df + dg
    zero = MultiPoly.zero(nv)
    rows = []
    for i in range(dg):  # rows of f coefficients
        row = [zero] * size
        for j, c in enumerate(fc):
            row[i + (df - j)] = c  # descending order placement
        rows.append(row)
    for i in range(df):
        row = [zero] * size
        for j, c in enumerate(gc):
            row[i + (dg - j)] = c
        rows.append(row)
    from .linalg import bareiss_det_poly

    return bareiss_det_poly(rows)


def jacobian_rank(polys: Iterable[MultiPoly], point: Sequence[Scalar]) -> int:
    """Exact rank of the stacked gradient matrix at a point."""
    polys = list(polys)
    if not polys:
        return 0
    rows = [gradient(p, point) for p in polys]
    from .linalg import rank

    return rank(rows)


# -- expression parsing (CLI input like "z1^3 + i*z1") ------------------------

_VAR_SETS = {
    ("z1", "z2"): 2,
    ("x", "y"): 2,
    ("x1", "y1", "x2", "y2"): 4,
}


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
    tree = ast.parse(text.replace("^", "**").strip(), mode="eval")

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
                e = right.terms.get((0,) * nv, Fraction(0))
                e = e.re if isinstance(e, GaussianRational) else e
                if e.denominator != 1 or e < 0:
                    raise ValueError("exponent must be a non-negative integer")
                return left ** int(e)
            if isinstance(node.op, ast.Div):
                if right.total_degree > 0:
                    raise ValueError("can only divide by a constant")
                c = right.terms.get((0,) * nv)
                if c is None:
                    raise ZeroDivisionError("division by zero")
                return left * (1 / c)
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

    return walk(tree)
