"""Exact linear algebra over Z, Q, and F_p.

Matrices store only their nonzero entries, one dict per row.  Each is
built whole, from dense rows or from one dict per row, and never
changes; only the dense Smith normal form asks for a dense copy of the
rows.  Homology groups of chain complex slices are read off the integer
invariant factors of their two boundary maps, whatever the coefficient
ring, so their entries must be ints.  A map whose entries all lie in
one row or one column, as most maps of a Lyubeznik block do, has one
factor, the gcd of its entries, or none when it is zero; it is read off
the stored rows.  Any other map is factored by sparse elimination on
+-1 pivots, run on a copy of the stored entries, followed by a dense
Smith normal form of the unit-free residual, which is usually small or
empty.  A matrix keeps its factors once computed, so a map shared by
two neighbouring blocks, or read over several rings, is factored once;
the factors of the submatrix on some of its rows are read off those
rows the same way, and not kept.  In the same way d_out remembers the
d_in it was last checked against, so the product d_out @ d_in that
proves a pair is a chain complex is taken once per pair, not once per
ring, and not at all when either map is zero.  homology_at is that
check followed by group_from_factors, which reads the group off the two
maps' factors and serves restrictions too; with no factors on either
side the group is free on the middle term, and every zero group it
reads is ZERO_GROUP.  A HomologyGroup is a Value, the package's base
for immutable values: its two slots, rank and torsion, are filled
through their slot descriptors, the cheapest route, since every block
read builds one, and setting a field raises AttributeError, so
ZERO_GROUP and the groups that BigradedTor keeps are shared safely.
Value stands in for frozen dataclasses, whose import alone (with
inspect, ast, dis and tokenize) costs a CLI command milliseconds of
start-up.  Cycle representatives are
separate, for the product structure alone; they use the dense Smith
normal form with explicit unimodular transforms over Z, and over a
field a row echelon form reduced at its leads only, on the stored
nonzeros and written once for Q and F_p, with one back-substituted null
vector per representative and per coordinate form.  The forms, kept as
their nonzeros, read a cycle's coordinates in one pass over its
(position, value) pairs, through an index of the forms by position, and
no elimination; the caller tests that it is a cycle by applying d.  The
dense Smith normal form is
one pivot loop: a pivot divides the trailing block when it is placed,
so the diagonal comes out in divisibility order with no pass
afterwards.  Everything is arbitrary-precision: Python ints over Z and
F_p, and over Q ints too until a non-unit pivot brings in
fractions.Fraction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class CapabilityError(Exception):
    """The requested computation is outside the supported coefficient range."""


class Value:
    """An immutable value, compared and hashed by its fields.

    A subclass names its fields in __slots__, fills them in __init__
    through their slot descriptors and returns them in order from
    _values.  Values of different classes are never equal, setting or
    deleting an attribute raises AttributeError, repr reads
    Name(field=value, ...), and pickling and copying call __init__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Rationals(Value):
    __slots__ = ()
    p = 0  # no modulus: arithmetic is exact

    def __str__(self) -> str:
        return "Q"


class Integers(Value):
    __slots__ = ()
    p = 0  # no modulus: arithmetic is exact

    def __str__(self) -> str:
        return "Z"


# Miller-Rabin with the first 13 prime bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 < n < _PRIME_LIMIT."""
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Value):
    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"{p!r} is not a prime")
        if p >= _PRIME_LIMIT:
            raise ValueError(f"{p} is too large: primes are checked exactly only below {_PRIME_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p!r} is not a prime")
        _set_p(self, p)

    def _values(self) -> tuple:
        return (self.p,)

    def __str__(self) -> str:
        return f"F{self.p}"


_set_p = PrimeField.p.__set__


QQ = Rationals()
ZZ = Integers()

CoefficientSpec = Rationals | Integers | PrimeField


def is_field(coeff: CoefficientSpec) -> bool:
    return isinstance(coeff, (Rationals, PrimeField))


class Matrix:
    """Integer (or field) matrix with explicit shape (shape survives zero
    dimensions) that stores only its nonzero entries.

    A matrix is built whole and never changes afterwards.
    Matrix(nrows, ncols) is the zero matrix, Matrix(nrows, ncols,
    dense_rows) takes dense rows, and Matrix.sparse(nrows, ncols, rows)
    takes one {column: value} dict per row.  Each row is kept as a dict
    from column to nonzero value, so equal matrices store equal dicts.
    rows returns a fresh dense list of lists, for the code that works on
    dense rows; changing that copy leaves M unchanged.

    factors holds the nonzero invariant factors once snf_diagonal or
    homology_at has computed them, and None before.  Likewise, as d_out
    of a chain pair, a matrix remembers the d_in it composed to zero
    with, so the pair is checked once.
    """

    __slots__ = ("nrows", "ncols", "_entries", "factors", "_zero_with")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self._entries: list[dict] = [{} for _ in range(nrows)]
        else:
            rows = [list(r) for r in rows]
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise ValueError("row data does not match the declared shape")
            self._entries = [{j: x for j, x in enumerate(r) if x} for r in rows]
        self.factors: tuple[int, ...] | None = None
        self._zero_with: Matrix | None = None

    @classmethod
    def sparse(cls, nrows: int, ncols: int, rows: Sequence[dict]) -> "Matrix":
        """The matrix with one {column: value} dict per row, which the
        caller hands over: a dict with no zero value is kept as it is,
        and any other is copied without its zeros.  Raises IndexError on
        a row count other than nrows or a column outside the shape."""
        if len(rows) != nrows:
            raise IndexError(f"{len(rows)} rows given for a {nrows}x{ncols} matrix")
        for i, row in enumerate(rows):
            if row and (min(row) < 0 or max(row) >= ncols):
                j = min(row) if min(row) < 0 else max(row)
                raise IndexError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
        M = object.__new__(cls)  # no zero rows to allocate and replace
        M.nrows, M.ncols, M.factors, M._zero_with = nrows, ncols, None, None
        M._entries = [{j: x for j, x in row.items() if x} if 0 in row.values() else row for row in rows]
        return M

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.sparse(n, n, [{i: 1} for i in range(n)])

    @property
    def rows(self) -> list[list]:
        dense = [[0] * self.ncols for _ in range(self.nrows)]
        for out, row in zip(dense, self._entries):
            for j, x in row.items():
                out[j] = x
        return dense

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out: list[dict] = [{} for _ in range(self.nrows)]
        for srow, orow in zip(self._entries, out):
            for k, a in srow.items():
                for j, b in other._entries[k].items():
                    orow[j] = orow.get(j, 0) + a * b
        return Matrix.sparse(self.nrows, other.ncols, out)

    def is_zero(self) -> bool:
        return not any(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows!r})"


class _SnfState:
    """Mutable SNF workspace tracking D = U M V together with the inverses.

    One pivot loop brings D to Smith form: a pivot divides the trailing
    block when it is placed, so no pass afterwards reorders the
    diagonal.  Tracking U or V can be switched off when a caller only
    needs one side; skipping the updates matters on the larger blocks.
    """

    def __init__(self, M: Matrix, track_u: bool, track_v: bool):
        self.nr = M.nrows
        self.nc = M.ncols
        self.d = M.rows
        self.u = Matrix.identity(self.nr).rows if track_u else None
        self.uinv = Matrix.identity(self.nr).rows if track_u else None
        self.v = Matrix.identity(self.nc).rows if track_v else None
        self.vinv = Matrix.identity(self.nc).rows if track_v else None

    # Row ops apply E on the left: D <- E D, U <- E U, Uinv <- Uinv E^-1.

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        if self.u is not None:
            self.u[i], self.u[j] = self.u[j], self.u[i]
            for row in self.uinv:
                row[i], row[j] = row[j], row[i]

    def negate_row(self, i: int) -> None:
        self.d[i] = [-x for x in self.d[i]]
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]
            for row in self.uinv:
                row[i] = -row[i]

    # Column ops apply E on the right: D <- D E, V <- V E, Vinv <- E^-1 Vinv.

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        if self.v is not None:
            for row in self.v:
                row[i], row[j] = row[j], row[i]
            self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def add_row_multiple(self, i: int, j: int, c: int) -> None:
        """row_i += c * row_j."""
        self.d[i] = [a + c * b for a, b in zip(self.d[i], self.d[j])]
        if self.u is not None:
            self.u[i] = [a + c * b for a, b in zip(self.u[i], self.u[j])]
            for row in self.uinv:
                row[j] -= c * row[i]

    def add_col_multiple(self, i: int, j: int, c: int) -> None:
        """col_i += c * col_j."""
        mats = (self.d, self.v) if self.v is not None else (self.d,)
        for mat in mats:
            for row in mat:
                row[i] += c * row[j]
        if self.vinv is not None:
            ri = self.vinv[i]
            rj = self.vinv[j]
            self.vinv[j] = [b - c * a for a, b in zip(ri, rj)]

    def _smallest(self, cells: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
        """The first of these (row, col) cells with the least nonzero
        |value|, or None when all are zero; a unit ends the search."""
        d = self.d
        best = None
        best_abs = 0
        for i, j in cells:
            val = d[i][j]
            if val:
                a = -val if val < 0 else val
                if best is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        break
        return best

    def _clear_position(self, k: int, cell: tuple[int, int]) -> None:
        """Place the entry at cell as a positive pivot at (k, k) and zero
        out row k and column k beyond it.  Balanced remainders stay at
        most half the pivot, and the first least of them in column k,
        then row k, is the next pivot, so the pivot shrinks geometrically
        and entries never blow up.  Once row k and column k are clear, a
        trailing row with an entry the pivot does not divide is added to
        row k, and its remainders shrink the pivot again: the pivot left
        divides the trailing block when it is placed."""
        d = self.d
        while cell is not None:
            self.swap_rows(k, cell[0])
            self.swap_cols(k, cell[1])
            if d[k][k] < 0:
                self.negate_row(k)
            pivot = d[k][k]
            for i in range(k + 1, self.nr):
                q = (d[i][k] + (pivot >> 1)) // pivot
                if q:
                    self.add_row_multiple(i, k, -q)
            for j in range(k + 1, self.nc):
                q = (d[k][j] + (pivot >> 1)) // pivot
                if q:
                    self.add_col_multiple(j, k, -q)
            cells = [(i, k) for i in range(k + 1, self.nr)] + [(k, j) for j in range(k + 1, self.nc)]
            cell = self._smallest(cells)
            if cell is None and pivot != 1:
                i = next((i for i in range(k + 1, self.nr) if any(x % pivot for x in d[i][k + 1 :])), None)
                if i is not None:
                    self.add_row_multiple(k, i, 1)
                    cell = (k, k)

    def diagonalize(self) -> int:
        """Main elimination; returns the number of nonzero diagonal
        entries.  Each pivot is the first least entry of the trailing
        block and divides it once placed, so the diagonal comes out
        positive and in divisibility order."""
        rank = 0
        for k in range(min(self.nr, self.nc)):
            cell = self._smallest((i, j) for i in range(k, self.nr) for j in range(k, self.nc))
            if cell is None:
                break
            self._clear_position(k, cell)
            rank += 1
        return rank


def _check_invariant_factors(diag: Sequence[int]) -> None:
    """Raise unless diag is positive with d_1 | d_2 | ...; a kernel fault
    would show here, so the check survives python -O."""
    if diag and (min(diag) <= 0 or any(b % a for a, b in zip(diag, diag[1:]))):
        raise AssertionError(f"invariant factors out of order: {diag}")


def _snf_state(M: Matrix, track_u: bool, track_v: bool) -> tuple[_SnfState, int]:
    st = _SnfState(M, track_u, track_v)
    rank = st.diagonalize()
    _check_invariant_factors([st.d[i][i] for i in range(rank)])
    return st, rank


def _eliminate_units(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> int:
    """Pivot on +-1 entries of the sparse matrix (rows, cols) until none
    is left; returns the number of pivots.

    Each pivot is the unit of the shortest row whose column has the
    fewest entries.  Clearing its column by row operations and then its
    row by column operations (which touch nothing else) is unimodular,
    so the matrix is equivalent to I_units plus the residual left in
    rows and cols.
    """
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    units = 0
    while heap:
        length, r = heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue  # stale: the row was eliminated or pushed again
        pivot = None
        fewest = 0
        for j, x in row.items():
            if (x == 1 or x == -1) and (pivot is None or len(cols[j]) < fewest):
                pivot, fewest = j, len(cols[j])
        if pivot is None:
            continue  # pushed again if a later pivot changes the row
        del rows[r]
        u = row.pop(pivot)
        for j in row:
            cols[j].discard(r)
        hit = cols.pop(pivot)
        hit.discard(r)
        for i in hit:
            target = rows[i]
            f = target.pop(pivot) * u
            for j, x in row.items():
                v = target.get(j, 0) - f * x
                if v:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = v
                else:
                    del target[j]
                    cols[j].discard(i)
            if target:
                heappush(heap, (len(target), i))
            else:
                del rows[i]
        units += 1
    return units


def _invariant_factors(sparse_rows: list[dict[int, int]]) -> list[int]:
    """Nonzero invariant factors of the matrix with these sparse rows,
    which are consumed.  Unit pivots come first, then the dense Smith
    form of the unit-free residual: 1 for each unit pivot, followed by
    the residual's factors, which 1 divides."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(sparse_rows):
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    diag = [1] * _eliminate_units(rows, cols)
    if rows:
        col_index = {j: k for k, j in enumerate(sorted(j for j, hit in cols.items() if hit))}
        residual = Matrix.sparse(
            len(rows), len(col_index), [{col_index[j]: x for j, x in row.items()} for row in rows.values()]
        )
        st, rank = _snf_state(residual, track_u=False, track_v=False)
        diag += [st.d[i][i] for i in range(rank)]
    return diag


def factors_at_rows(M: Matrix, positions: Iterable[int]) -> tuple[int, ...]:
    """Nonzero invariant factors of the submatrix of M on the rows at
    these positions, which are left unchanged.  When the entries all lie
    in one row or one column, the one factor is their gcd, and rows with
    no entries have none; any other submatrix is eliminated from a copy
    of its rows.  The factors do not depend on column labels, so a
    restriction whose rows have no entry off its columns is read off M's
    rows as they stand.  Raises ValueError on an entry that is not an
    int."""
    filled = [row for i in positions if (row := M._entries[i])]
    if not filled:
        factors = ()
    else:
        values = [x for row in filled for x in row.values()]
        if not all(isinstance(x, int) for x in values):
            raise ValueError("invariant factors need integer entries")
        if len(filled) > 1 and len({j for row in filled for j in row}) > 1:
            factors = tuple(_invariant_factors([row.copy() for row in filled]))
        else:
            factors = (gcd(*values),)
    _check_invariant_factors(factors)
    return factors


def _factors(M: Matrix) -> tuple[int, ...]:
    """M.factors, computed on first use."""
    if M.factors is None:
        M.factors = factors_at_rows(M, range(M.nrows))
    return M.factors


def snf_diagonal(M: Matrix) -> list[int]:
    """Nonzero invariant factors of M, in divisibility order."""
    return list(_factors(M))


class HomologyGroup(Value):
    """Finitely generated module: free rank and invariant factors > 1.

    A group is a Value, so ZERO_GROUP and the entries of every
    BigradedTor share instances; its repr is positional."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        _set_rank(self, rank)
        _set_torsion(self, torsion)

    def _values(self) -> tuple:
        return (self.rank, self.torsion)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values()!r}"

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def signature(self) -> tuple:
        return (self.rank, self.torsion)

    def __str__(self) -> str:
        parts = ["Z" if self.rank == 1 else f"Z^{self.rank}"] if self.rank else []
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


_set_rank = HomologyGroup.rank.__set__
_set_torsion = HomologyGroup.torsion.__set__


class HomologyBasis(HomologyGroup):
    """A homology group together with integer cycle vectors spanning its
    free part in the block basis (residues over F_p), and one coordinate
    form per representative, kept as the (position, value) pairs of its
    nonzeros, whose values on a cycle are its class's coordinates (over
    F_p, reduced mod p).  The same forms read by position, which
    reduce_cycle evaluates, are derived once by columns() and are not
    part of the value: equality, hashing and pickling ignore them."""

    __slots__ = ("representatives", "coordinates", "_columns")

    def __init__(
        self,
        rank: int,
        torsion: tuple[int, ...] = (),
        representatives: tuple[tuple, ...] = (),
        coordinates: tuple[tuple, ...] = (),
    ):
        super().__init__(rank, torsion)
        for name, value in zip(self.__slots__, (representatives, coordinates, None)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return (self.rank, self.torsion, self.representatives, self.coordinates)

    def columns(self) -> dict[int, list[tuple[int, object]]]:
        """Position -> the (form, value) pairs of the coordinate forms'
        nonzeros there; built on first use and kept."""
        if self._columns is None:
            columns: dict[int, list[tuple[int, object]]] = {}
            for k, form in enumerate(self.coordinates):
                for j, a in form:
                    columns.setdefault(j, []).append((k, a))
            object.__setattr__(self, "_columns", columns)
        return self._columns


ZERO_GROUP = HomologyGroup(0)


def _subtract(target: dict, f, row: dict, p: int) -> None:
    """target -= f * row on sparse rows, reduced mod p when p; entries
    that cancel are dropped."""
    for j, y in row.items():
        x = target.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            target[j] = x
        else:
            del target[j]


def _echelon(rows: Sequence[dict], p: int) -> dict[int, dict]:
    """Row echelon form over F_p, or over Q when p == 0, of the matrix
    with these sparse rows, which are left unchanged: lead column -> the
    nonzeros of its row, 1 at the lead and none left of it.  Each row is
    reduced at the earlier leads, in increasing column order, and scaled
    to 1 on its least column; no earlier row changes.  The leads are the
    reduced form's pivots.  Entries are residues mod p; over Q a row stays
    ints under +-1 leads, and only a non-unit lead makes Fractions."""
    leads: dict[int, dict] = {}
    for row in rows:
        r = {j: x % p for j, x in row.items() if x % p} if p else dict(row)
        hits = [c for c in r if c in leads]
        heapify(hits)
        while hits:
            c = heappop(hits)
            if c in r:
                pivot = leads[c]
                for j in pivot:
                    if j in leads and j not in r:
                        heappush(hits, j)
                _subtract(r, r[c], pivot, p)
        if not r:
            continue
        lead = min(r)
        inv = pow(r[lead], -1, p) if p else r[lead] if r[lead] in (1, -1) else 1 / Fraction(r[lead])
        leads[lead] = {j: x * inv % p if p else x * inv for j, x in r.items()}
    return leads


def _null_vector(leads: dict[int, dict], f: int, p: int) -> dict[int, object]:
    """Nonzeros of the null vector of an _echelon form at free column f:
    minus column f of the reduced form, with 1 at f and 0 at every other
    free column.  A row's entries off its lead lie at free columns and at
    the leads of rows found after it, so back-substitution takes the
    rows in reverse order of finding; only leads left of f can be
    nonzero."""
    null = {f: 1}
    for c in reversed(leads):
        if c < f:
            x = -sum(y * null[j] for j, y in leads[c].items() if j in null)
            if p:
                x %= p
            if x:
                null[c] = x
    return null


def _primitive_int_vector(vec: list, p: int) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    if p:
        return tuple(int(x) for x in vec)
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def check_chain_pair(d_in: Matrix, d_out: Matrix) -> None:
    """Raise ValueError unless d_out @ d_in is defined and zero.  The
    product is taken once per pair, and not when either map is zero:
    d_out holds the d_in it passed with, so no other matrix can take
    that d_in's place, as it could by reusing a freed id."""
    if d_out.ncols != d_in.nrows:
        raise ValueError(f"shape mismatch: d_out is {d_out.nrows}x{d_out.ncols}, d_in is {d_in.nrows}x{d_in.ncols}")
    if d_out._zero_with is d_in:
        return
    if not (d_out.is_zero() or d_in.is_zero() or (d_out @ d_in).is_zero()):
        raise ValueError("not a chain complex: d_out composed with d_in is nonzero")
    d_out._zero_with = d_in


def homology_at(d_in: Matrix, d_out: Matrix, coeff: CoefficientSpec) -> HomologyGroup:
    """ker(d_out) / im(d_in) at the middle term of  . --d_in--> . --d_out--> .

    d_in has shape (n, b), d_out has shape (a, n).  Raises ValueError
    when the maps do not compose to zero; the group is read off their
    invariant factors by group_from_factors.
    """
    check_chain_pair(d_in, d_out)
    return group_from_factors(d_out.ncols, _factors(d_out), _factors(d_in), coeff)


def group_from_factors(
    n: int, out_factors: Sequence[int], in_factors: Sequence[int], coeff: CoefficientSpec
) -> HomologyGroup:
    """The homology group at a middle term of rank n, from the integer
    invariant factors of the maps out of it and into it: ker(d_out) is a
    direct summand of Z^n containing im(d_in), so over Z the rank is n
    minus both factor counts and the torsion is the factors of d_in
    above 1; over F_p only the factors p does not divide count toward
    the ranks.  With no factors on either side the group is Z^n, over
    every ring, and is read without a pass over them."""
    if not out_factors and not in_factors:
        return HomologyGroup(n) if n else ZERO_GROUP
    p = coeff.p
    if p:
        rank = n - sum(1 for d in out_factors if d % p) - sum(1 for d in in_factors if d % p)
        return HomologyGroup(rank) if rank else ZERO_GROUP
    rank = n - len(out_factors) - len(in_factors)
    torsion = tuple(d for d in in_factors if d > 1) if isinstance(coeff, Integers) else ()
    return HomologyGroup(rank, torsion) if rank or torsion else ZERO_GROUP


def homology_representatives(d_in: Matrix, d_out: Matrix, coeff: CoefficientSpec) -> HomologyBasis:
    """The group of homology_at together with cycle representatives of
    its free part and the forms reduce_cycle evaluates; only the product
    structure needs them."""
    check_chain_pair(d_in, d_out)
    if isinstance(coeff, Integers):
        return _homology_integers(d_in, d_out)
    return _homology_field(d_in, d_out, coeff)


def _homology_field(d_in: Matrix, d_out: Matrix, coeff: CoefficientSpec) -> HomologyBasis:
    n, p = d_out.ncols, coeff.p
    kernel = _echelon(d_out._entries, p)
    free = [f for f in range(n) if f not in kernel]
    # A cycle's coordinates in the nullspace basis are its entries at the
    # free columns, so those of the image are the columns of d_in there.
    position = {f: g for g, f in enumerate(free)}
    image: list[dict] = [{} for _ in range(d_in.ncols)]
    for f, row in enumerate(d_in._entries):
        if f in position:
            for c, x in row.items():
                image[c][position[f]] = x
    image_leads = _echelon(image, p)
    reps = []
    coordinates = []
    for g, f in enumerate(free):
        if g in image_leads:
            continue
        null = [0] * n
        for j, x in _null_vector(kernel, f, p).items():
            null[j] = x
        rep = _primitive_int_vector(null, p)
        # Modulo the image, a cycle with nullspace coordinates x is the sum
        # of (v_g . x) e_g over the free columns g of image_leads, v_g the
        # null vector of image_leads at g; rep is rep[f] e_g, and
        # rep[f] == 1 over F_p.
        scale = 1 if p else Fraction(1, rep[f])
        form = {free[c]: x * scale for c, x in _null_vector(image_leads, g, p).items()}
        reps.append(rep)
        coordinates.append(tuple(sorted(form.items())))
    return HomologyBasis(len(reps), (), tuple(reps), tuple(coordinates))


def _homology_integers(d_in: Matrix, d_out: Matrix) -> HomologyBasis:
    n = d_out.ncols
    st, rank_out = _snf_state(d_out, track_u=False, track_v=True)
    # z = V (Vinv z), and d_out V is zero beyond its first rank_out
    # columns, which are independent: z is a cycle exactly when the first
    # rank_out entries of Vinv z vanish, and the others are its
    # coordinates in the kernel basis of the remaining columns of V.
    k = n - rank_out
    kernel_forms = Matrix(k, n, st.vinv[rank_out:])
    X = kernel_forms @ d_in
    # U2 X V2 = D2, so kernel coordinates x = Uinv2 (U2 x): the image is
    # spanned by multiples of the first rank_in columns of Uinv2, and the
    # class of x has coordinate (U2 x)_j on the column j beyond them,
    # whose image under the kernel columns of V is its representative
    st2, rank_in = _snf_state(X, track_u=True, track_v=False)
    torsion = tuple(d for d in (st2.d[i][i] for i in range(rank_in)) if d > 1)
    forms = Matrix(k - rank_in, k, st2.u[rank_in:]) @ kernel_forms
    kernel_cols = Matrix(n, k, [row[rank_out:] for row in st.v])
    vecs = kernel_cols @ Matrix(k, k - rank_in, [row[rank_in:] for row in st2.uinv])
    reps = []
    coordinates = []
    for j, form in enumerate(forms._entries):
        vec = [row.get(j, 0) for row in vecs._entries]
        sign = -1 if next(x for x in vec if x) < 0 else 1
        reps.append(tuple(sign * x for x in vec))
        coordinates.append(tuple((i, sign * x) for i, x in sorted(form.items())))
    return HomologyBasis(k - rank_in, torsion, tuple(reps), tuple(coordinates))


def reduce_cycle(terms: Iterable[tuple], group: HomologyBasis, coeff: CoefficientSpec) -> tuple:
    """Coordinates, in the group's representative basis, of the class of
    a cycle given by the (position, value) pairs of its nonzeros: each
    is one coordinate form's value (mod p over F_p), all read in one
    pass through columns().  The forms cannot tell a non-cycle, so the
    caller applies d first, as TorRing.product does.  Over Z this is
    only defined in torsion-free blocks."""
    if isinstance(coeff, Integers) and group.torsion:
        raise CapabilityError("unsupported: ring reduction over Z with torsion")
    columns = group.columns()
    values: list = [0] * len(group.coordinates)
    for j, x in terms:
        for k, a in columns.get(j, ()):
            values[k] += a * x
    p = coeff.p
    return tuple(v % p for v in values) if p else tuple(values)
