"""The dense Smith normal form: an independent oracle for the sparse one.

It runs the same elementary operations on full lists of lists: the
smallest nonzero |entry| of the trailing block as pivot, the lowest
(row, col) on ties, exact-division clearing of the pivot row and column,
and a divisibility fix-up that adds the first offending row into the
pivot row.  Every row and column operation rewrites whole rows of the
working matrix, U, V and both inverses, which is what makes it slow on
large sparse matrices.  It lives here only to be compared with
`intlinalg.smith_normal_form`: the same U, D, V, U_inv and V_inv, entry
for entry.
"""

from __future__ import annotations

from ainfcat.intlinalg import IntMatrix, SmithDecomposition


def _find_pivot(m: list[list[int]], t: int, rows: int, cols: int):
    """Smallest |entry| > 0 in the trailing block, lowest (i, j) on ties.

    Nothing is smaller than a unit, so the scan stops at the first one.
    """
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
                if v == 1 or v == -1:
                    return best
    return best


def dense_smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    rows, cols = A.rows, A.cols
    m = [list(r) for r in A.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    # U^{-1} is kept transposed, so both inverses change by whole rows:
    # U -> E U gives U^{-1} -> U^{-1} E^{-1}, and V -> V F gives
    # V^{-1} -> F^{-1} V^{-1}.
    u_inv_t = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v_inv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j; column j of U^{-1} += q * column i
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        u_inv_t[j] = [a + q * b for a, b in zip(u_inv_t[j], u_inv_t[i])]

    def col_op(i, j, q):  # col_i -= q * col_j; row j of V^{-1} += q * row i
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]
        v_inv[j] = [a + q * b for a, b in zip(v_inv[j], v_inv[i])]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    t = 0
    while True:
        piv = _find_pivot(m, t, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        # Clear row and column t; a failed exact division re-enters the loop
        # with a strictly smaller pivot, so this terminates.
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot; a unit
        # divides everything.
        d = m[t][t]
        offender = None
        if d not in (1, -1):
            offender = next((i for i in range(t + 1, rows) if any(x % d for x in m[i][t + 1 :])), None)
        if offender is not None:
            row_op(t, offender, -1)  # add offending row into pivot row
            continue
        t += 1

    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
            u_inv_t[i] = [-x for x in u_inv_t[i]]

    return SmithDecomposition(
        U=IntMatrix(u, cols=rows),
        D=IntMatrix(m, cols=cols),
        V=IntMatrix(v, cols=cols),
        U_inv=IntMatrix(u_inv_t, cols=rows).transpose(),
        V_inv=IntMatrix(v_inv, cols=cols),
    )
