# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled int64 twin of the pure Fourier-Motzkin kernel (_fmpure.solve).

Identical algorithm and processing order: rows in input order, last
coordinate eliminated first, (positive x negative) pair order, joint gcd
reduction of row and provenance, and the Chernikov/Imbert support bound.
No row is merged with another of the same direction: a duplicate can carry
a smaller provenance support than the copy that would be kept, and the
bound could then prune the kept copy, so an infeasible system would read
feasible.  Arithmetic runs on 64-bit integers with conservative overflow
guards; `solve` returns None whenever a value could overflow, and the
caller falls back to the pure kernel.
"""

from cpython cimport array
import array

ctypedef long long i64

cdef i64 LIMIT = (<i64>1) << 61

cdef array.array _I64 = array.array('q', [])


cdef inline i64 igcd(i64 a, i64 b) nogil:
    cdef i64 t
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    while b:
        t = a % b
        a = b
        b = t
    return a


cdef object _push(i64 *tbuf, int d, int n, i64 *nbuf, int *new_count,
                  int stride):
    """Append the candidate row+provenance, or return a ("dual", ...) result."""
    cdef int j
    cdef i64 g
    cdef bint zero = 1
    for j in range(d):
        if tbuf[j] != 0:
            zero = 0
            break
    if zero:
        g = 0
        for j in range(n):
            g = igcd(g, tbuf[d + j])
        return ("dual", tuple([tbuf[d + j] // g for j in range(n)]))
    g = 0
    for j in range(d + n):
        g = igcd(g, tbuf[j])
        if g == 1:
            break
    if g > 1:
        for j in range(d + n):
            tbuf[j] //= g
    for j in range(d + n):
        nbuf[new_count[0] * stride + j] = tbuf[j]
    new_count[0] += 1
    return None


def solve(rows, int dim):
    """Mirror of hyparr._fmpure.solve; None signals int64 overflow risk."""
    cdef int n = len(rows)
    cdef int d, i, j, p, pa, pb, stride, new_stride, count, new_count, cap
    cdef int elim, support
    cdef bint nonzero
    cdef i64 g, ma, mb, ta, tb, val, va, vb
    cdef array.array cur, nxt, tmp
    cdef i64 *cbuf
    cdef i64 *nbuf
    cdef i64 *tbuf
    cdef object pyval

    d = dim
    stride = d + n
    cap = n if n > 0 else 1
    cur = array.clone(_I64, cap * stride, zero=True)
    cbuf = cur.data.as_longlongs
    count = n
    for i in range(n):
        row = rows[i]
        for j in range(d):
            pyval = row[j]
            if pyval > LIMIT or pyval < -LIMIT:
                return None
            cbuf[i * stride + j] = pyval
        cbuf[i * stride + d + i] = 1

    stages = []
    while d > 0:
        stages.append([
            tuple([cbuf[i * stride + j] for j in range(d)]) for i in range(count)
        ])
        elim = dim - d + 1
        new_stride = (d - 1) + n
        pos = []
        neg = []
        zer = []
        for i in range(count):
            val = cbuf[i * stride + d - 1]
            if val > 0:
                pos.append(i)
            elif val < 0:
                neg.append(i)
            else:
                zer.append(i)
        cap = len(zer) + len(pos) * len(neg)
        if cap == 0:
            cap = 1
        nxt = array.clone(_I64, cap * new_stride, zero=True)
        nbuf = nxt.data.as_longlongs
        tmp = array.clone(_I64, new_stride if new_stride > 0 else 1, zero=True)
        tbuf = tmp.data.as_longlongs
        new_count = 0

        for p in range(len(zer)):
            i = zer[p]
            for j in range(d - 1):
                tbuf[j] = cbuf[i * stride + j]
            for j in range(n):
                tbuf[d - 1 + j] = cbuf[i * stride + d + j]
            res = _push(tbuf, d - 1, n, nbuf, &new_count, new_stride)
            if res is not None:
                return res

        for pa in pos:
            ma = cbuf[pa * stride + d - 1]
            for pb in neg:
                mb = -cbuf[pb * stride + d - 1]
                ta = LIMIT / mb
                tb = LIMIT / ma
                nonzero = 0
                for j in range(d - 1):
                    va = cbuf[pa * stride + j]
                    vb = cbuf[pb * stride + j]
                    if va > ta or va < -ta or vb > tb or vb < -tb:
                        return None
                    tbuf[j] = mb * va + ma * vb
                    if tbuf[j] != 0:
                        nonzero = 1
                for j in range(n):
                    va = cbuf[pa * stride + d + j]
                    vb = cbuf[pb * stride + d + j]
                    if va > ta or va < -ta or vb > tb or vb < -tb:
                        return None
                    tbuf[d - 1 + j] = mb * va + ma * vb
                if nonzero:
                    support = 0
                    for j in range(n):
                        if tbuf[d - 1 + j] != 0:
                            support += 1
                    if support > elim + 1:
                        continue
                res = _push(tbuf, d - 1, n, nbuf, &new_count, new_stride)
                if res is not None:
                    return res

        cur = nxt
        cbuf = nbuf
        count = new_count
        stride = new_stride
        d -= 1

    return ("stages", stages)
