"""Small dense exact linear algebra over an explicit finite field object.

Matrices are lists of row lists, vectors plain lists; the column convention
is used for matrix action (mat_vec(A, v) = A.v). Row operations go through
the field's vec_submul; SpanTracker's rows are ints, of bits over F_2 and of
byte slots over the levels with byte-slot tables: char 2 up to 256 elements,
odd p up to 16 (F_3 to F_13 and F_9).
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
    out, pivots = [], []
    for row in rows:
        echelon_insert(field, out, pivots, row)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def echelon_insert(field, rows, pivots, vec, width=None):
    """Insert vec into the reduced echelon basis (rows, pivots), in place.

    Pivots are sought among the first `width` columns (all by default).
    Returns None when vec extends the span, and then rows[-1] is its
    normalized remainder; otherwise returns the remainder.
    """
    zero = field.zero
    v = reduce_vector(field, vec, rows, pivots)
    pivot = next((j for j, c in enumerate(v[:width]) if c != zero), None)
    if pivot is None:
        return v
    v = field.vec_submul([zero] * len(v), field.neg(field.inv(v[pivot])), v)  # v / v[pivot]
    for t, row in enumerate(rows):
        if row[pivot] != zero:
            rows[t] = field.vec_submul(row, row[pivot], v)
    rows.append(v)
    pivots.append(pivot)
    return None


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

    Each inserted vector carries the unit vector of its insertion index in
    extra columns, so row operations track it as a combination of all
    insertions so far. When some v_i falls into the span of v_0..v_(i-1),
    those columns hold c_0..c_i with sum c_j v_j = 0 and c_i = 1.

    Over F_2 a row is one int, as in M4RI (M. Albrecht, G. Bard, W. Hart, ACM
    TOMS 37, 2010): bit j is column j, tracking column i is bit width + i, a
    pivot step is one xor, and add also takes a vector packed so, given width.
    Over a level with byte-slot tables (char 2 up to 256 elements, odd p up to
    16) a row's slots are bytes, and a pivot step is one translate and the
    level's slot_sub: one xor over char 2, an or and a translate over odd p.
    """

    def __init__(self, field, width=None):
        self.field, self.width = field, width
        self.rows, self.pivots, self.count = [], [], 0

    def add(self, vec):
        field, count, scales = self.field, self.count, self.field.scales
        self.count += 1
        if field.size != 2 and not scales:
            zero = field.zero
            for row in self.rows:
                row.append(zero)  # the column of this insertion
            v = list(vec) + [zero] * count + [field.one]
            rem = echelon_insert(field, self.rows, self.pivots, v, width=len(vec))
            return None if rem is None else rem[len(vec) :]
        # bits per slot; over odd p the level's slot_sub, while char 2 keeps its xor inline: a call slows this loop 4-8%
        bits, sub = (8 if scales else 1), field.diffs and field.slot_sub
        if not isinstance(vec, int):
            self.width, vec = len(vec), sum(c << bits * j for j, c in enumerate(vec))
        width, top, size = self.width, (1 << bits) - 1, self.width + count + 1
        def times(c, row):  # c * row, for c != 1 only over a level with scales
            return row if c == 1 else int.from_bytes(row.to_bytes(size, "little").translate(scales[c]), "little")

        v = vec | 1 << bits * (width + count)
        for row, p in zip(self.rows, self.pivots):
            if c := v >> bits * p & top:
                v = sub(v, times(c, row)) if sub else v ^ (row if c == 1 else times(c, row))
        low = v & (1 << bits * width) - 1
        if not low:
            return [v >> bits * (width + j) & top for j in range(count + 1)]
        pivot = ((low & -low).bit_length() - 1) // bits
        v = times(field.inv(v >> bits * pivot & top), v)
        self.rows = [
            (sub(row, times(c, v)) if sub else row ^ times(c, v)) if (c := row >> bits * pivot & top) else row
            for row in self.rows
        ] + [v]
        self.pivots.append(pivot)
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
