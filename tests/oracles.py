"""Independent brute-force reference implementations used as test oracles.

Everything here except :func:`gram_one_matmul` is written as plain loops
over the defining formulas, on purpose: these must stay independent of the
vectorized library code they check.
"""
import numpy as np


def difference_set(grid):
    """All pairwise differences of integer grid positions, with counts."""
    counts = {}
    for a in grid:
        for b in grid:
            counts[a - b] = counts.get(a - b, 0) + 1
    return counts


def central_run_length(lags):
    """Length of the maximal zero-centered step-1 run in a lag set."""
    lag_set = set(lags)
    h = 0
    while (h + 1) in lag_set and -(h + 1) in lag_set:
        h += 1
    return 2 * h + 1


def capacity_bruteforce(m, n):
    """Largest K with K + K(K-1)/2 <= m*n + 1, by enumeration."""
    k = 0
    while (k + 1) + (k + 1) * k // 2 <= m * n + 1:
        k += 1
    return k


def first_second_order_terms(positions, wavelength, theta, r):
    """Per-pair linear and quadratic phase term matrices, by loops."""
    u = len(positions)
    p_mat = np.zeros((u, u))
    q_mat = np.zeros((u, u))
    for i in range(u):
        for j in range(u):
            p_i = -positions[i] * 2.0 * np.pi * np.sin(theta) / wavelength
            p_j = -positions[j] * 2.0 * np.pi * np.sin(theta) / wavelength
            q_i = positions[i] ** 2 * np.pi * np.cos(theta) ** 2 / (wavelength * r)
            q_j = positions[j] ** 2 * np.pi * np.cos(theta) ** 2 / (wavelength * r)
            p_mat[i, j] = p_i - p_j
            q_mat[i, j] = q_i - q_j
    return p_mat, q_mat


def covariance_reference(positions, wavelength, thetas, ranges):
    """Noise-free quadratic-phase covariance, entry by entry."""
    u = len(positions)
    out = np.zeros((u, u), dtype=complex)
    for theta, r in zip(thetas, ranges):
        p_mat, q_mat = first_second_order_terms(positions, wavelength, theta, r)
        out += np.exp(1j * (p_mat + q_mat))
    return out


def mirror_reference(positions, wavelength, thetas, ranges):
    """Anti-diagonal mirror via the sign-flipped quadratic term."""
    u = len(positions)
    out = np.zeros((u, u), dtype=complex)
    for theta, r in zip(thetas, ranges):
        p_mat, q_mat = first_second_order_terms(positions, wavelength, theta, r)
        out += np.exp(1j * (p_mat - q_mat))
    return out


def self_cross_reference(positions, wavelength, thetas, ranges):
    """Self and cross spectrum matrices from the defining double sums."""
    u = len(positions)
    k = len(thetas)
    terms = [
        first_second_order_terms(positions, wavelength, thetas[i], ranges[i])
        for i in range(k)
    ]
    s_mat = np.zeros((u, u), dtype=complex)
    c_mat = np.zeros((u, u), dtype=complex)
    for kk in range(k):
        s_mat += np.exp(2j * terms[kk][0])
    for w in range(k):
        for v in range(k):
            if v == w:
                continue
            c_mat += np.exp(
                1j * (terms[v][0] + terms[w][0] + terms[v][1] - terms[w][1])
            )
    return s_mat, c_mat


def ls_covariance_reference(y, x):
    """Per-snapshot rank-one LS covariance, straight off the definition."""
    u, t = y.shape
    acc = np.zeros((u, u), dtype=complex)
    for ti in range(t):
        xt = x[:, ti]
        yt = y[:, ti]
        bt = np.outer(yt, xt.conj()) / (xt.conj() @ xt)
        acc = acc + bt @ bt.conj().T
    return acc / t


def gram_one_matmul(y, weight=None):
    """``c c^H / T`` of ``c = y * weight`` (columnwise) as one matrix product,
    made exactly Hermitian.  Unlike the loop oracles this is vectorized on
    purpose: it is the unblocked product the blocked Gram must reproduce
    bitwise when one block holds every snapshot."""
    c = y if weight is None else y * weight[None, :]
    gram = c @ c.conj().T / y.shape[1]
    return 0.5 * (gram + gram.conj().T)


def jacobi_eigvalsh(matrix, max_sweeps=100, tol=1e-14):
    """Eigenvalues of a complex Hermitian matrix via cyclic Jacobi rotations.

    Independent of LAPACK: repeatedly zeroes the largest-magnitude
    off-diagonal entries with 2x2 unitary rotations.  Returns ascending
    eigenvalues.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    scale = max(np.max(np.abs(a)), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                phase = apq / abs(apq)
                angle = 0.5 * np.arctan2(2.0 * abs(apq), app - aqq)
                c = np.cos(angle)
                s = np.sin(angle)
                g = np.eye(n, dtype=complex)
                g[p, p] = c
                g[p, q] = -s * phase
                g[q, p] = s * np.conj(phase)
                g[q, q] = c
                a = g.conj().T @ a @ g
    return np.sort(np.diag(a).real)


def coarray_vector_reference(matrix, grid, segment):
    """Mean of the matrix entries at each lag of ``segment``, collected by loops."""
    by_lag = {}
    for i, g_i in enumerate(grid):
        for j, g_j in enumerate(grid):
            by_lag.setdefault(g_i - g_j, []).append(matrix[i, j])
    return np.array([np.mean(by_lag[lag]) for lag in segment])


def noise_power_reference(noise_basis, manifold):
    """Normalized noise-subspace power ``||a^H U_n||^2 / W`` of each manifold
    row ``a`` of length W, summed term by term over the noise columns."""
    out = []
    for a in manifold:
        total = 0.0
        for col in noise_basis.T:
            inner = sum(np.conj(a_i) * u_i for a_i, u_i in zip(a, col))
            total += abs(inner) ** 2
        out.append(total / len(a))
    return np.array(out)


def virtual_steering_matrix(w, unit, wavelength, angle_grid_deg, position_scale=2.0):
    """Complex W-element virtual ULA manifold, one row per angle, element by
    element: ``exp(-2j pi / wavelength * position_scale * unit * k * sin(theta))``."""
    rows = []
    for theta_deg in np.atleast_1d(angle_grid_deg):
        s = np.sin(np.deg2rad(theta_deg))
        rows.append(
            [
                np.exp(-2j * np.pi / wavelength * position_scale * unit * k * s)
                for k in range(w)
            ]
        )
    return np.array(rows)


def range_steering_matrix(layout, theta_deg, range_grid_m):
    """Quadratic-phase manifold ``exp(1j * (p + q))``, one row per range, for
    a scalar angle ``(R, U)`` or each of several angles ``(C, R, U)``."""
    thetas = np.atleast_1d(theta_deg)
    lam = layout.wavelength
    out = np.zeros((thetas.size, len(range_grid_m), layout.size), dtype=complex)
    for c, theta_deg_c in enumerate(thetas):
        theta = np.deg2rad(theta_deg_c)
        for i, r in enumerate(range_grid_m):
            for u, s in enumerate(layout.positions):
                p = -s * 2.0 * np.pi * np.sin(theta) / lam
                q = s**2 * np.pi * np.cos(theta) ** 2 / (lam * r)
                out[c, i, u] = np.exp(1j * (p + q))
    return out[0] if np.ndim(theta_deg) == 0 else out


def unitary_q(w):
    """The sparse unitary that makes centro-Hermitian matrices real: for
    ``W = 2n``, ``[[I, 1j I], [J, -1j J]] / sqrt(2)``; for odd W the same
    blocks around a middle row and column holding 1."""
    n = w // 2
    q = np.zeros((w, w), dtype=complex)
    for k in range(n):
        q[k, k] = 1.0 / np.sqrt(2.0)
        q[k, w - n + k] = 1j / np.sqrt(2.0)
        q[w - 1 - k, k] = 1.0 / np.sqrt(2.0)
        q[w - 1 - k, w - n + k] = -1j / np.sqrt(2.0)
    if w % 2:
        q[n, n] = 1.0
    return q
