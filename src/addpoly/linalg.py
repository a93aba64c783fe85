"""Small dense exact linear algebra over an explicit finite field object.

Matrices are lists of row lists, vectors plain lists; the column convention
is used for matrix action (mat_vec(A, v) = A.v). Row operations go through
the field's vec_submul/vec_scale helpers so prime-field eliminations stay
in tight integer comprehensions.
"""

from .errors import InputError


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_vec(field, mat, vec):
    add, mul, zero = field.add, field.mul, field.zero
    out = []
    for row in mat:
        acc = zero
        for a, b in zip(row, vec):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return out


def mat_mul(field, a, b):
    cols = list(zip(*b))
    add, mul, zero = field.add, field.mul, field.zero
    out = []
    for row in a:
        orow = []
        for col in cols:
            acc = zero
            for x, y in zip(row, col):
                if x != zero and y != zero:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot columns), rows pivot-sorted."""
    zero = field.zero
    out, pivots = [], []
    for row in rows:
        row = list(row)
        for prow, p in zip(out, pivots):
            c = row[p]
            if c != zero:
                row = field.vec_submul(row, c, prow)
        pivot = next((j for j, c in enumerate(row) if c != zero), None)
        if pivot is None:
            continue
        row = field.vec_scale(field.inv(row[pivot]), row)
        for t in range(len(out)):
            c = out[t][pivot]
            if c != zero:
                out[t] = field.vec_submul(out[t], c, row)
        out.append(row)
        pivots.append(pivot)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def rank(field, rows):
    return len(rref(field, rows)[0])


def kernel(field, mat):
    """Basis of {v : mat.v = 0}, one vector per free column of the rref."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(field, mat)
    pivot_set = set(pivots)
    basis = []
    for fcol in range(ncols):
        if fcol in pivot_set:
            continue
        v = [field.zero] * ncols
        v[fcol] = field.one
        for row, p in zip(rows, pivots):
            v[p] = field.neg(row[fcol])
        basis.append(v)
    return basis


def reduce_vector(field, vec, rows, pivots):
    vec = list(vec)
    zero = field.zero
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c != zero:
            vec = field.vec_submul(vec, c, row)
    return vec


def span_coords(field, vec, rows, pivots):
    """Coordinates of vec in the span of rref rows, or None if outside."""
    coords = [vec[p] for p in pivots]
    if any(c != field.zero for c in reduce_vector(field, vec, rows, pivots)):
        return None
    return coords


class SpanTracker:
    """Incrementally grown echelon basis that reports the first dependence.

    Each inserted vector is tracked as a combination of all insertions so
    far, so when some v_i falls into the span of v_0..v_(i-1) the returned
    dependence coefficients c_0..c_i satisfy sum c_j v_j = 0 with c_i = 1.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []
        self.pivots = []
        self.combos = []
        self.count = 0

    def _combo_submul(self, a, c, b):
        f = self.field
        n = max(len(a), len(b))
        a = a + [f.zero] * (n - len(a))
        b = b + [f.zero] * (n - len(b))
        return f.vec_submul(a, c, b)

    def add(self, vec):
        f = self.field
        zero = f.zero
        v = list(vec)
        combo = [zero] * self.count + [f.one]
        self.count += 1
        for row, p, rc in zip(self.rows, self.pivots, self.combos):
            c = v[p]
            if c != zero:
                v = f.vec_submul(v, c, row)
                combo = self._combo_submul(combo, c, rc)
        pivot = next((j for j, c in enumerate(v) if c != zero), None)
        if pivot is None:
            return combo
        inv = f.inv(v[pivot])
        v = f.vec_scale(inv, v)
        combo = f.vec_scale(inv, combo)
        for t in range(len(self.rows)):
            c = self.rows[t][pivot]
            if c != zero:
                self.rows[t] = f.vec_submul(self.rows[t], c, v)
                self.combos[t] = self._combo_submul(self.combos[t], c, combo)
        self.rows.append(v)
        self.pivots.append(pivot)
        self.combos.append(combo)
        return None


def vector_minpoly_coeffs(field, mat, vec):
    """Monic minimal polynomial of vec under mat, as a little-endian list."""
    if not mat:
        raise InputError("empty matrix")
    tracker = SpanTracker(field)
    w = list(vec)
    while True:
        dep = tracker.add(w)
        if dep is not None:
            return dep
        w = mat_vec(field, mat, w)
