"""Exact linear algebra over the integers, the rationals, and prime fields.

The workhorse is a sparse Smith normal form over ZZ with optional
unimodular transforms (U * A * V = D together with both inverses), which
yields ranks, torsion, kernel bases, and canonical coordinates all at
once; cohomology over every coefficient ring is read off those forms.
Small dense helpers over Fraction / GF(p) serve the Koszul oracle and
independent cross-checks.  Nothing here is numerical: every result is
exact.
"""

from __future__ import annotations

from fractions import Fraction


def extended_gcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntMatrix:
    """Sparse integer matrix with an explicit shape."""

    def __init__(self, num_rows, num_cols, entries=None):
        if num_rows < 0 or num_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.entries = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                if not (0 <= r < num_rows and 0 <= c < num_cols):
                    raise IndexError(f"entry ({r},{c}) outside shape "
                                     f"{num_rows}x{num_cols}")
                if v:
                    self.entries[r, c] = v

    @classmethod
    def from_rows(cls, rows, num_cols=None):
        num_rows = len(rows)
        if num_cols is None:
            num_cols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    entries[r, c] = v
        return cls(num_rows, num_cols, entries)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def to_rows(self):
        rows = [[0] * self.num_cols for _ in range(self.num_rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def get(self, r, c):
        return self.entries.get((r, c), 0)

    def column(self, c):
        col = [0] * self.num_rows
        for (r, c2), v in self.entries.items():
            if c2 == c:
                col[r] = v
        return col

    @property
    def is_zero(self):
        return not self.entries

    def transpose(self):
        return IntMatrix(self.num_cols, self.num_rows,
                         {(c, r): v for (r, c), v in self.entries.items()})

    def __matmul__(self, other):
        if self.num_cols != other.num_rows:
            raise ValueError("shape mismatch in matrix product")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                acc = out.get(key, 0) + v * w
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return IntMatrix(self.num_rows, other.num_cols, out)

    def apply(self, vector):
        """Matrix-vector product on a dense integer vector."""
        if len(vector) != self.num_cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.num_rows
        for (r, c), v in self.entries.items():
            if vector[c]:
                out[r] += v * vector[c]
        return out

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and self.num_rows == other.num_rows
                and self.num_cols == other.num_cols
                and self.entries == other.entries)

    def __repr__(self):
        return (f"IntMatrix({self.num_rows}x{self.num_cols}, "
                f"{len(self.entries)} nonzero)")


class _Sparse:
    """Mutable dict-of-rows matrix with column occupancy, for eliminations."""

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows = {}
        self.cols = {}

    @classmethod
    def from_matrix(cls, matrix):
        s = cls()
        for (r, c), v in matrix.entries.items():
            s.rows.setdefault(r, {})[c] = v
            s.cols.setdefault(c, set()).add(r)
        return s

    @classmethod
    def identity(cls, n):
        s = cls()
        for i in range(n):
            s.rows[i] = {i: 1}
            s.cols[i] = {i}
        return s

    def _set(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, set()).add(r)
        else:
            row = self.rows.get(r)
            if row and c in row:
                del row[c]
                if not row:
                    del self.rows[r]
                occ = self.cols[c]
                occ.discard(r)
                if not occ:
                    del self.cols[c]

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, 0)

    def row_axpy(self, target, source, k):
        """row_target += k * row_source."""
        for c, v in list(self.rows.get(source, {}).items()):
            self._set(target, c, self.get(target, c) + k * v)

    def col_axpy(self, target, source, k):
        """col_target += k * col_source."""
        for r in list(self.cols.get(source, ())):
            self._set(r, target, self.get(r, target) + k * self.rows[r][source])

    def swap_rows(self, i, j):
        if i == j:
            return
        ri = self.rows.pop(i, {})
        rj = self.rows.pop(j, {})
        for c in ri:
            self.cols[c].discard(i)
        for c in rj:
            self.cols[c].discard(j)
        if rj:
            self.rows[i] = rj
            for c in rj:
                self.cols[c].add(i)
        if ri:
            self.rows[j] = ri
            for c in ri:
                self.cols[c].add(j)
        for c in set(ri) | set(rj):
            if not self.cols.get(c):
                self.cols.pop(c, None)

    def swap_cols(self, i, j):
        if i == j:
            return
        occ_i = self.cols.pop(i, set())
        occ_j = self.cols.pop(j, set())
        vals_i = {r: self.rows[r].pop(i) for r in occ_i}
        vals_j = {r: self.rows[r].pop(j) for r in occ_j}
        for r, v in vals_j.items():
            self.rows[r][i] = v
        for r, v in vals_i.items():
            self.rows[r][j] = v
        if occ_j:
            self.cols[i] = set(occ_j)
        if occ_i:
            self.cols[j] = set(occ_i)

    def combine_rows(self, i, j, x, y, u, v):
        """(row_i, row_j) <- (x*row_i + y*row_j, u*row_i + v*row_j)."""
        ri = dict(self.rows.get(i, {}))
        rj = dict(self.rows.get(j, {}))
        for c in set(ri) | set(rj):
            a = ri.get(c, 0)
            b = rj.get(c, 0)
            self._set(i, c, x * a + y * b)
            self._set(j, c, u * a + v * b)

    def combine_cols(self, i, j, x, y, u, v):
        """(col_i, col_j) <- (x*col_i + y*col_j, u*col_i + v*col_j)."""
        occ = set(self.cols.get(i, ())) | set(self.cols.get(j, ()))
        for r in occ:
            a = self.get(r, i)
            b = self.get(r, j)
            self._set(r, i, x * a + y * b)
            self._set(r, j, u * a + v * b)

    def scale_row(self, i, s):
        for c in list(self.rows.get(i, {})):
            self.rows[i][c] *= s

    def scale_col(self, i, s):
        for r in self.cols.get(i, ()):
            self.rows[r][i] *= s

    def to_matrix(self, num_rows, num_cols):
        entries = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                entries[r, c] = v
        return IntMatrix(num_rows, num_cols, entries)


class SmithForm:
    """Smith normal form data: ``U @ A @ V`` is diagonal.

    ``diagonal`` holds the invariant factors d_1 | d_2 | ... | d_r,
    positive and including any leading ones; ``rank`` is their count.
    The transforms are only populated when requested.
    """

    def __init__(self, num_rows, num_cols, diagonal,
                 U=None, V=None, U_inv=None, V_inv=None):
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.diagonal = list(diagonal)
        self.U = U
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv

    @property
    def rank(self):
        return len(self.diagonal)

    @property
    def torsion(self):
        return [d for d in self.diagonal if d > 1]

    def rank_mod(self, p):
        """Rank of the matrix over GF(p): factors not divisible by p."""
        return sum(1 for d in self.diagonal if d % p)

    def as_matrix(self):
        return IntMatrix(self.num_rows, self.num_cols,
                         {(i, i): d for i, d in enumerate(self.diagonal)})


def _choose_pivot(work, start):
    """Markowitz pivot in the active region: least fill bound, then least
    absolute value, then least position."""
    best_key = None
    best = None
    cols = work.cols
    for r, row in work.rows.items():
        if r < start:
            continue
        rn = len(row) - 1
        for c, v in row.items():
            key = (rn * (len(cols[c]) - 1), v if v > 0 else -v, r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
    return best


def smith_normal_form(matrix, keep_transforms=False):
    """Smith normal form of an integer matrix.

    Eliminates with Markowitz pivoting and gcd row/column combines, then
    enforces the divisibility chain.  With ``keep_transforms`` the result
    carries unimodular U, V and their inverses with U @ A @ V diagonal.
    """
    m, n = matrix.num_rows, matrix.num_cols
    work = _Sparse.from_matrix(matrix)
    if keep_transforms:
        tu, tu_inv = _Sparse.identity(m), _Sparse.identity(m)
        tv, tv_inv = _Sparse.identity(n), _Sparse.identity(n)
    else:
        tu = tu_inv = tv = tv_inv = None

    def row_axpy(t, s, k):
        work.row_axpy(t, s, k)
        if tu is not None:
            tu.row_axpy(t, s, k)
            tu_inv.col_axpy(s, t, -k)

    def col_axpy(t, s, k):
        work.col_axpy(t, s, k)
        if tv is not None:
            tv.col_axpy(t, s, k)
            tv_inv.row_axpy(s, t, -k)

    def combine_rows(i, j, a, b):
        # Replace rows i, j so the new (i, pivot-col) entry is gcd(a, b).
        g, x, y = extended_gcd(a, b)
        u, v = -(b // g), a // g
        work.combine_rows(i, j, x, y, u, v)
        if tu is not None:
            tu.combine_rows(i, j, x, y, u, v)
            # inverse of [[x, y], [u, v]] (determinant 1) is [[v, -y], [-u, x]]
            tu_inv.combine_cols(i, j, v, -u, -y, x)
        return g

    def combine_cols(i, j, a, b):
        g, x, y = extended_gcd(a, b)
        u, v = -(b // g), a // g
        work.combine_cols(i, j, x, y, u, v)
        if tv is not None:
            tv.combine_cols(i, j, x, y, u, v)
            tv_inv.combine_rows(i, j, v, -u, -y, x)
        return g

    def swap_rows(i, j):
        work.swap_rows(i, j)
        if tu is not None:
            tu.swap_rows(i, j)
            tu_inv.swap_cols(i, j)

    def swap_cols(i, j):
        work.swap_cols(i, j)
        if tv is not None:
            tv.swap_cols(i, j)
            tv_inv.swap_rows(i, j)

    def negate_row(i):
        work.scale_row(i, -1)
        if tu is not None:
            tu.scale_row(i, -1)
            tu_inv.scale_col(i, -1)

    k = 0
    while True:
        pivot = _choose_pivot(work, k)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        while True:
            for r in sorted(work.cols.get(k, set()) - {k}):
                a = work.get(k, k)
                b = work.get(r, k)
                if b % a == 0:
                    row_axpy(r, k, -(b // a))
                else:
                    combine_rows(k, r, a, b)
            for c in sorted(set(work.rows.get(k, {})) - {k}):
                a = work.get(k, k)
                b = work.get(k, c)
                if b == 0:
                    continue
                if b % a == 0:
                    col_axpy(c, k, -(b // a))
                else:
                    combine_cols(k, c, a, b)
            if (work.cols.get(k, set()) <= {k}
                    and set(work.rows.get(k, {})) <= {k}):
                break
        if work.get(k, k) < 0:
            negate_row(k)
        k += 1

    # Enforce d_i | d_{i+1}; each fix replaces (a, b) by (gcd, lcm).
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a = work.get(i, i)
            b = work.get(i + 1, i + 1)
            if b % a:
                changed = True
                col_axpy(i, i + 1, 1)
                g = combine_rows(i, i + 1, a, b)
                rem = work.get(i, i + 1)
                col_axpy(i + 1, i, -(rem // g))

    diagonal = [work.get(i, i) for i in range(k)]
    if keep_transforms:
        return SmithForm(m, n, diagonal,
                         U=tu.to_matrix(m, m), V=tv.to_matrix(n, n),
                         U_inv=tu_inv.to_matrix(m, m),
                         V_inv=tv_inv.to_matrix(n, n))
    return SmithForm(m, n, diagonal)


def quotient_group(boundary_in, boundary_out):
    """Structure of ker(boundary_out) / im(boundary_in) over ZZ.

    Requires boundary_out @ boundary_in = 0.  Returns (rank, torsion)
    where torsion lists the invariant factors greater than one.  The
    kernel of an integer matrix is a saturated (hence direct) summand,
    so the torsion of the quotient is exactly the torsion of the
    cokernel of boundary_in.
    """
    if boundary_out.num_cols != boundary_in.num_rows:
        raise ValueError("boundary shapes do not compose")
    if not (boundary_out @ boundary_in).is_zero:
        raise ValueError("maps do not form a complex")
    incoming = smith_normal_form(boundary_in)
    outgoing = smith_normal_form(boundary_out)
    rank = boundary_out.num_cols - outgoing.rank - incoming.rank
    return rank, incoming.torsion


def rank_mod_p(matrix, p):
    """Rank over GF(p), by sparse elimination with Markowitz pivoting."""
    rows = {}
    cols = {}
    for (r, c), v in matrix.entries.items():
        v %= p
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    rank = 0
    while rows:
        best_key = None
        best = None
        for r, row in rows.items():
            rn = len(row) - 1
            for c in row:
                key = (rn * (len(cols[c]) - 1), r, c)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (r, c)
        pr, pc = best
        rank += 1
        inv = pow(rows[pr][pc], -1, p)
        pivot_row = rows.pop(pr)
        for c in pivot_row:
            cols[c].discard(pr)
        for r in list(cols.get(pc, ())):
            row = rows[r]
            factor = (row[pc] * inv) % p
            for c, v in pivot_row.items():
                new = (row.get(c, 0) - factor * v) % p
                if new:
                    row[c] = new
                    cols[c].add(r)
                else:
                    if c in row:
                        del row[c]
                        cols[c].discard(r)
            if not row:
                del rows[r]
        for c in pivot_row:
            if not cols.get(c):
                cols.pop(c, None)
    return rank


# ----------------------------------------------------------------------
# dense helpers over a field (Fraction when p is None, else GF(p))


def _field_inv(a, p):
    return pow(a, -1, p) if p else Fraction(1) / a


def _normalize(rows, p):
    if p is None:
        return [[Fraction(v) for v in row] for row in rows]
    return [[v % p for v in row] for row in rows]


def field_echelon(rows, p=None):
    """Reduced row echelon form.  Returns (rank, rref, pivot_columns)."""
    mat = _normalize(rows, p)
    num_cols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(num_cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = _field_inv(mat[r][c], p)
        mat[r] = [(v * inv) % p if p else v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                if p:
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
                else:
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return r, mat, pivots


def field_rank(rows, p=None):
    return field_echelon(rows, p)[0]


def field_nullspace(rows, p=None):
    """Basis of the right nullspace, one dense vector per free column."""
    if not rows:
        return []
    num_cols = len(rows[0])
    _, rref, pivots = field_echelon(rows, p)
    pivot_set = set(pivots)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for f in range(num_cols):
        if f in pivot_set:
            continue
        vec = [zero] * num_cols
        vec[f] = one
        for r, c in enumerate(pivots):
            v = rref[r][f]
            vec[c] = (-v) % p if p else -v
        basis.append(vec)
    return basis


def field_solve(rows, rhs, p=None):
    """One solution of A x = b over the field, or None if inconsistent."""
    if not rows:
        return None if any(rhs) else []
    num_cols = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    rank, rref, pivots = field_echelon(augmented, p)
    if num_cols in pivots:
        return None
    solution = [0 if p else Fraction(0)] * num_cols
    for r, c in enumerate(pivots):
        solution[c] = rref[r][num_cols]
    return solution
