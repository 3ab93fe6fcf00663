"""Scalar fields, dense matrices, and basis descriptors.

Every matrix and vector is homogeneous in one scalar field: exact
rationals (``fractions.Fraction``), 64-bit floats, or complex doubles.
Rationals promote to floats, and floats to complex doubles, whenever
fields mix; the reverse direction is an error, never a silent rounding.

The orientation convention is fixed once for the whole package: column
k of a differentiation matrix holds the coefficients of the derivative
of the k-th basis element, so coefficient vectors transform covariantly,
b = D a.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import index, mul


class Field(Enum):
    """Scalar field tag, ordered along the promotion ladder."""

    RATIONAL = "rational"
    REAL = "real"
    COMPLEX = "complex"

    # members are singletons: identity hashing keeps dict lookups in C
    __hash__ = object.__hash__


_RANK = {Field.RATIONAL: 0, Field.REAL: 1, Field.COMPLEX: 2}


class FieldError(ValueError):
    """Raised on an attempt to demote a scalar into a smaller field."""


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


def field_of(x) -> Field:
    """Return the field tag of a scalar value."""
    # bool is a subclass of int, so it lands in RATIONAL like any integer
    if isinstance(x, (int, Fraction)):
        return Field.RATIONAL
    if isinstance(x, float):
        return Field.REAL
    if isinstance(x, complex):
        return Field.COMPLEX
    raise TypeError(f"not a supported scalar: {x!r}")


def join_fields(*fields: Field) -> Field:
    """Smallest field containing all the given ones."""
    return max(fields, key=_RANK.__getitem__)


def coerce_scalar(x, field: Field):
    """Convert a scalar into ``field``; only promotion is allowed."""
    have = field_of(x)
    if _RANK[have] > _RANK[field]:
        raise FieldError(f"cannot demote {have.value} value {x!r} to {field.value}")
    if field is Field.RATIONAL:
        return x if isinstance(x, Fraction) else Fraction(x)
    if field is Field.REAL:
        return float(x)
    return complex(x)


_SCALAR_TYPE = {Field.RATIONAL: Fraction, Field.REAL: float, Field.COMPLEX: complex}


def _coerce_all(values, field: Field | None = None) -> tuple:
    """(field, values coerced into it), ``field`` by default the smallest holding the rationals and
    every value.  Values all of the field's type come back as the same tuple; bools, ints and Fractions
    go into the rational field, and plain numbers into a floating field, in one pass, a Fraction's
    float being numerator / denominator (float()'s), the rest value by value: a refused value is first."""
    values = tuple(values)
    types = set(map(type, values))
    rational = types <= {bool, int, Fraction}   # their join is the rational field
    if field is None:
        field = Field.RATIONAL if rational else join_fields(Field.RATIONAL, *map(field_of, values))
    kind = _SCALAR_TYPE[field]
    if types <= {kind}:
        return field, values
    if field is Field.RATIONAL and rational:
        return field, tuple([x if type(x) is Fraction else Fraction(x) for x in values])
    if field is Field.RATIONAL or not types <= {bool, int, Fraction, float, kind}:
        return field, tuple([coerce_scalar(x, field) for x in values])
    return field, tuple(map(kind, [x.numerator / x.denominator if type(x) is Fraction
                                   else x for x in values]))


def _integer_scaled(xs) -> tuple[int, list[int]]:
    """Clear the denominators of rationals: (L, [L * x for x in xs]), L their lcm."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _dot_products(rows, cols, field: Field) -> list:
    """Every row dotted with every column, row-major, summed left to right from zero."""
    zero = zero_of(field)
    return [sum(map(mul, row, col), zero) for row in rows for col in cols]


def all_finite(field: Field, values) -> bool:
    """Do none of the values hold inf or nan?  Rationals always pass.

    A finite sum has only finite terms, so the entrywise pass runs only
    when the sum is not finite: a non-finite entry or an overflowing sum.
    """
    return (field is Field.RATIONAL or cmath.isfinite(sum(values))
            or all(map(cmath.isfinite, values)))


def zero_of(field: Field):
    return coerce_scalar(0, field)


def one_of(field: Field):
    return coerce_scalar(1, field)


class DenseMatrix:
    """Immutable dense matrix with entries in one scalar field.

    Storage is row-major.  Matrices here stay small (a few hundred rows
    at most), so no triangular or banded structure is exploited even
    when the contents would allow it.  Construction checks the entry
    types in one pass over ``map(type, entries)`` and coerces, in one
    more pass, only when some entry is not of the field's own type.

    A rational matrix is also held as integer rows: row i is (den, nums),
    entries nums[j] / den, with den > 0 and gcd(den, *nums) = 1, so a zero
    row has den 1 and equal matrices have equal rows.  The exact kernels
    (products, ``mat_apply``, ``mat_inf_norm``, ``==`` and ``structure.py``)
    read and build only that form, as do the rational ``identity`` and
    ``zeros``.  A matrix built from entries gets its rows on the first such
    read; one built from rows forms one ``Fraction`` per entry on the first
    read of ``entries``, indexing, ``row``, ``column`` or hashing, and none
    for output in any field.  Both forms are cached.  An exact product puts
    the right factor's rows over one denominator L, their lcm; a left row
    with at most two nonzeros is that combination of them, any other row
    a dot product with each column, and each row sits over its den times L.
    """

    __slots__ = ("rows", "cols", "field", "_entries", "_ints")

    def __init__(self, rows: int, cols: int, entries, field: Field | None = None):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        field, entries = _coerce_all(entries, field)
        self.rows = rows
        self.cols = cols
        self.field = field
        self._entries = entries
        self._ints = None

    @classmethod
    def _from_ints(cls, cols: int, int_rows) -> "DenseMatrix":
        """Rational matrix from rows (den, nums), den != 0, each over gcd(den, *nums) so den > 0."""
        M, rows = cls.__new__(cls), []
        for den, nums in int_rows:
            g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
            rows.append((den, nums) if g == 1 else (den // g, [x // g for x in nums]))
        M.rows, M.cols, M.field, M._entries, M._ints = len(rows), cols, Field.RATIONAL, None, rows
        return M

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            zero = Fraction(0)   # immutable, so one object serves every zero entry
            self._entries = tuple([(Fraction(x, den) if den > 1 else Fraction(x)) if x else zero
                                   for den, nums in self._ints for x in nums])
        return self._entries

    def _int_rows(self) -> list:
        """Integer rows of a rational matrix; from the entries, row by row, on first use."""
        if self._ints is None:
            self._ints = [_integer_scaled(self.row(i)) for i in range(self.rows)]
        return self._ints

    @classmethod
    def from_rows(cls, rows, field: Field | None = None) -> "DenseMatrix":
        rows = [r if isinstance(r, (list, tuple)) else list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, chain.from_iterable(rows), field)

    @classmethod
    def identity(cls, n: int, field: Field = Field.RATIONAL) -> "DenseMatrix":
        if field is Field.RATIONAL and n >= 0:   # a negative size is refused below
            return cls._from_ints(n, [(1, [0] * i + [1] + [0] * (n - 1 - i)) for i in range(n)])
        one, zero = one_of(field), zero_of(field)
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)], field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: Field = Field.RATIONAL) -> "DenseMatrix":
        if field is Field.RATIONAL and min(rows, cols) >= 0:
            return cls._from_ints(cols, [(1, [0] * cols) for _ in range(rows)])
        return cls(rows, cols, [zero_of(field)] * (rows * cols), field)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols}")
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            field = join_fields(self.field, other.field)
            if field is not Field.RATIONAL:
                out = _dot_products(map(self.row, range(self.rows)),
                                    [other.column(j) for j in range(other.cols)], field)
                return DenseMatrix(self.rows, other.cols, out, field)
            L = math.lcm(*[d for d, _ in other._int_rows()])
            B = [r if d == L else [x * (L // d) for x in r] for d, r in other._int_rows()]
            cols = list(zip(*B)) or [()] * other.cols
            out = []
            for den, row in self._int_rows():
                if len(row) - row.count(0) > 2:
                    nums = [sum(map(mul, row, col)) for col in cols]
                elif len(terms := [(x, B[j]) for j, x in enumerate(row) if x]) == 2:   # x B_j + y B_k
                    (x, u), (y, v) = terms
                    nums = [x * s + y * t for s, t in zip(u, v)]
                else:   # x B_j, or a zero row
                    nums = [terms[0][0] * s for s in terms[0][1]] if terms else [0] * other.cols
                out.append((den * L, nums))
            return DenseMatrix._from_ints(other.cols, out)
        # scalar
        field = join_fields(self.field, field_of(other))
        return DenseMatrix(self.rows, self.cols, [e * other for e in self.entries], field)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.field is other.field is Field.RATIONAL:
            return self._int_rows() == other._int_rows()
        return all(a == b for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols}, {self.field.value})"


class NodeSet:
    """Distinct finite interpolation nodes with per-node confluencies.

    It states the instance rules, read by every constructor and the CLI: distinct finite nodes,
    one confluency s >= 1 each, a node carrying function data and the first s - 1 scaled derivatives.
    Confluency 1 everywhere is plain interpolation.  ``offsets[i]`` is node i's first flat data slot.
    """

    __slots__ = ("nodes", "confluencies", "field", "offsets", "dimension")

    def __init__(self, nodes, confluencies=None):
        nodes = tuple(nodes)
        if not nodes:
            raise ValueError("need at least one node")
        if confluencies is None:
            confluencies = (1,) * len(nodes)
        confluencies = tuple(map(index, confluencies))
        if len(confluencies) != len(nodes):
            raise ValueError(f"{len(nodes)} nodes but {len(confluencies)} confluencies")
        if any(s < 1 for s in confluencies):
            raise ValueError("confluencies must be at least 1")
        field, nodes = _coerce_all(nodes)
        if not all_finite(field, nodes):
            raise ValueError("nodes must be finite numbers")
        # equal numbers hash equal, so each value maps to its last index
        last = {t: k for k, t in enumerate(nodes)}
        if len(last) < len(nodes):
            a = next(a for a, t in enumerate(nodes) if last[t] != a)
            raise ValueError(f"duplicate node {nodes[a]!r}; use a confluency instead")
        offsets, total = [], 0
        for s in confluencies:
            offsets.append(total)
            total += s
        self.nodes = nodes
        self.confluencies = confluencies
        self.field = field
        self.offsets = tuple(offsets)
        self.dimension = total

    @property
    def is_simple(self) -> bool:
        # every confluency is at least 1, so they sum to len(nodes) only if all are 1
        return self.dimension == len(self.nodes)

    def flat_nodes(self) -> tuple:
        """Nodes repeated by confluency, node-major."""
        out = []
        for t, s in zip(self.nodes, self.confluencies):
            out.extend([t] * s)
        return tuple(out)

    def slot(self, i: int, j: int) -> int:
        """Flat index of derivative order j at node i in the data layout."""
        if not (0 <= i < len(self.nodes)) or not (0 <= j < self.confluencies[i]):
            raise IndexError(f"no slot ({i}, {j}) in this node set")
        return self.offsets[i] + j

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return f"NodeSet({list(self.nodes)!r}, {list(self.confluencies)!r})"


def as_node_set(nodes) -> NodeSet:
    """Wrap a plain sequence of points as a confluency-1 NodeSet."""
    return nodes if isinstance(nodes, NodeSet) else NodeSet(nodes)


def _degree(n) -> int:
    """The degree of an instance, by the one rule for every degree: an integer, at least 0."""
    n = index(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return n


class DegreeGradedBasis:
    """Basis with deg(phi_k) = k, described by its x-multiplication recurrence.  It states the instance
    rules, read by every constructor and the CLI: a ``_degree`` n and at least n recurrence terms."""

    __slots__ = ("recurrence", "degree", "name")

    def __init__(self, recurrence, degree: int, name: str = "degree-graded"):
        self.degree = _degree(degree)
        if len(recurrence) < self.degree:
            raise ValueError(f"degree {self.degree} needs {self.degree} recurrence terms, got {len(recurrence)}")
        self.recurrence = recurrence
        self.name = name

    @property
    def dimension(self) -> int:
        return self.degree + 1

    def __repr__(self):
        return f"DegreeGradedBasis({self.name}, degree={self.degree})"


class HermiteBasis:
    """Cardinal basis matching values and scaled derivatives at confluent nodes."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = as_node_set(nodes)

    @property
    def dimension(self) -> int:
        return self.nodes.dimension

    def __repr__(self):
        return f"{type(self).__name__}({self.nodes!r})"


class LagrangeBasis(HermiteBasis):
    """Cardinal-function basis on simple nodes, the confluency-1 Hermite basis; it states that instance rule."""

    __slots__ = ()

    def __init__(self, nodes):
        super().__init__(nodes)
        if not self.nodes.is_simple:
            raise ValueError("barycentric weights need simple nodes; see gen_bary_weights")


class BernsteinBasis:
    """Bernstein basis of a fixed degree on [0, 1].  It states the instance rule: a ``_degree``."""

    __slots__ = ("degree",)

    def __init__(self, degree: int):
        self.degree = _degree(degree)

    @property
    def dimension(self) -> int:
        return self.degree + 1

    def __repr__(self):
        return f"BernsteinBasis(degree={self.degree})"


def mat_apply(M: DenseMatrix, v) -> tuple:
    """Apply a matrix to a coefficient vector, b = M a, as a tuple.

    Fields are joined by promotion (a rational matrix applied to a float
    vector gives floats, never the other way around).
    """
    coeffs = tuple(v)
    if M.cols != len(coeffs):
        raise ValueError(f"matrix has {M.cols} columns, vector has {len(coeffs)} entries")
    field = join_fields(M.field, *(field_of(c) for c in coeffs))
    if field is not Field.RATIONAL:
        return tuple(_dot_products(map(M.row, range(M.rows)), [coeffs], field))
    L, v = _integer_scaled(coeffs)
    return tuple([Fraction(sum(map(mul, nums, v)), den * L) for den, nums in M._int_rows()])


def mat_inf_norm(M: DenseMatrix):
    """Max absolute row sum, zero without entries: a Fraction on rational matrices, else a float."""
    if M.field is Field.RATIONAL:
        return max((Fraction(sum(map(abs, nums)), den) for den, nums in M._int_rows()),
                   default=Fraction(0))
    return float(vec_inf_norm([sum(map(abs, M.row(i)), 0.0) for i in range(M.rows)]))


def vec_inf_norm(v):
    """Largest absolute value, Fraction(0) without values; nan when any value is, wherever it sits."""
    norms = list(map(abs, v))
    if not norms:
        return Fraction(0)
    top = max(norms)
    # max keeps its running value against a nan; a float sum of magnitudes is nan only where one is
    return math.nan if isinstance(top, float) and math.isnan(sum(norms)) else top


def mat_power(M: DenseMatrix, k: int) -> DenseMatrix:
    """k-th power by repeated squaring; k = 0 gives the identity.

    About 2 log2(k) products (Knuth, TAOCP vol. 2, 4.6.3).  Exact powers
    equal the repeated product; float powers group the products
    differently and may round differently.
    """
    if M.rows != M.cols:
        raise ValueError("matrix power needs a square matrix")
    if k < 0:
        raise ValueError("negative powers are not defined here")
    out = DenseMatrix.identity(M.rows, M.field)
    while k:
        if k & 1:
            out = out * M
        k >>= 1
        if k:
            M = M * M
    return out

