"""Independent brute-force reference implementations used as test oracles.

Everything here except :func:`gram_one_matmul`, :func:`synthesize_bulk`,
:func:`refine_parabolic_rows`, :func:`real_form`,
:func:`linear_sum_assignment` and the peak finder (:func:`detect_peaks`,
:func:`classify_range_spectrum`) is written as plain loops over the defining
formulas, on purpose: these must stay independent of the vectorized library
code they check.  The peak
finder is an independent oracle built on ``scipy.signal.find_peaks``, which
the package does not use: one call and one scalar parabolic fit per
spectrum, which the package's own row-wise finder must reproduce bit for
bit.  :func:`real_form` forms ``Re(Q^H R Q)`` by flips and sums, the matrix
the angle stage gathers straight from the coarray vector, and
:func:`linear_sum_assignment` is the package's own solver in the interface
of ``scipy.optimize.linear_sum_assignment``, which it must agree with.
"""
import math
from itertools import permutations

import numpy as np
from scipy.signal import find_peaks

from canf.bench import _solve
from canf.music import (
    PEAK_PROMINENCE_DB,
    SIGNIFICANCE_DB,
    ClassifiedTarget,
    Peak,
    PseudoSpectrum,
)


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


def gram_blocks_in_order(y, weight, block):
    """``c c^H / T`` of ``c = y * weight`` (columnwise; ``c = y`` when
    ``weight`` is None), made exactly Hermitian, summed as a plain loop: one
    product per ``block`` snapshots, each added to the sum of the blocks
    before it.  This is the order the blocked Gram must keep, bit for bit,
    whichever thread makes a product."""
    n = y.shape[1]
    gram = None
    for start in range(0, n, block):
        c = y[:, start : start + block]
        if weight is not None:
            c = c * weight[start : start + block]
        product = c @ c.conj().T
        gram = product if gram is None else gram + product
    gram = gram / n
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


_HALF_SQRT2 = math.sqrt(0.5)


def _unitary_fold(a: np.ndarray) -> np.ndarray:
    """``Q^H a`` along the first axis, by flips and sums.

    ``Q`` is the sparse unitary of the unitary-transformation method: for
    ``W = 2n`` it is ``[[I, 1j I], [J, -1j J]] / sqrt(2)``, and for
    ``W = 2n + 1`` the same blocks around a middle row and column holding 1.
    """
    w = a.shape[0]
    n = w // 2
    top, flip = a[:n], a[::-1][:n]
    return np.concatenate(
        ((top + flip) * _HALF_SQRT2, a[n : w - n], (top - flip) * (-1j * _HALF_SQRT2))
    )


def real_form(matrix: np.ndarray) -> np.ndarray:
    """The real symmetric ``S = Re(Q^H R Q)`` of a centro-Hermitian ``R``.

    ``Q`` is unitary, so ``S`` has the eigenvalues of ``R`` and ``Q`` maps
    its eigenvectors back; ``Q^H R Q`` is real exactly when
    ``J R J = conj(R)``.  ``R`` must be centro-Hermitian within
    ``1e-9 * |trace|``, the tolerance :func:`canf.music.eig_hermitian`
    allows on Hermiticity (Huarng & Yeh, IEEE Trans. ASSP 1991).
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(abs(np.trace(a)), 1.0)
    if np.max(np.abs(a[::-1, ::-1] - a.conj())) > 1e-9 * scale:
        raise ValueError("matrix is not centro-Hermitian within tolerance")
    # Q^H R Q = (Q^H (Q^H R)^H)^H, and Re(X^H) = Re(X)^T.
    return _unitary_fold(_unitary_fold(a).conj().T).real.T


def linear_sum_assignment(cost: list[list[float]]) -> list[tuple[int, int]]:
    """The least-total assignment of a rectangular cost, as ``(row, col)``
    pairs sorted by row; every row is assigned if there are no more rows than
    columns, every column otherwise.

    :func:`canf.bench._solve` on the cost or, with more rows than columns,
    on its transpose, so it picks the assignment
    ``scipy.optimize.linear_sum_assignment`` picks.  Plain Python on lists
    of floats.  An ``inf`` entry is a forbidden pair; ValueError if every
    assignment uses one.  NaN and ``-inf`` are not checked for here
    (:func:`canf.associate` rejects them).
    """
    if len(cost) > len(cost[0]):
        col4row, _, _ = _solve([list(col) for col in zip(*cost)])
        return sorted((j, i) for i, j in enumerate(col4row))
    return list(enumerate(_solve(cost)[0]))


def smoothed_eigvalsh_mp(r_tilde, dps=34):
    """Descending eigenvalues of the window-average smoothed matrix of a
    length ``2W - 1`` coarray vector, built and decomposed in ``mpmath`` at
    ``dps`` digits: ``sum_k w_k w_k^H / W`` over the windows
    ``w_k = r_tilde[k : k + W]``, entry by entry.  Every double converts to
    ``mpmath`` exactly, so the only rounding is at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        r = [mpmath.mpc(complex(v).real, complex(v).imag) for v in r_tilde]
        w = (len(r) + 1) // 2
        smoothed = mpmath.zeros(w, w)
        for k in range(w):
            window = r[k : k + w]
            for i in range(w):
                for j in range(w):
                    smoothed[i, j] += window[i] * mpmath.conj(window[j])
        eigvals = mpmath.eighe(smoothed / w, eigvals_only=True)
        return np.array(sorted((float(v) for v in eigvals), reverse=True))


def synthesize_bulk(b, n_snapshots, sigma2, seed):
    """``(x, y)`` from one bulk ``standard_normal`` call of ``(2K + 2U, T)``
    normals (``(2K, T)`` when ``sigma2`` is 0), the draw order and arithmetic
    :func:`canf.synthesize` documents."""
    u, k = b.shape
    rows = 2 * k + (2 * u if sigma2 > 0.0 else 0)
    draws = np.random.default_rng(seed).standard_normal((rows, n_snapshots))
    x = np.empty((k, n_snapshots), dtype=complex)
    x.real = draws[:k] * (1.0 / np.sqrt(2.0))
    x.imag = draws[k : 2 * k] * (1.0 / np.sqrt(2.0))
    y = b @ x
    if sigma2 > 0.0:
        noise = draws[2 * k :] * np.sqrt(sigma2 / 2.0)
        y.real += noise[:u]
        y.imag += noise[u:]
    return x, y


def refine_parabolic_rows(db, row, col, axis):
    """The array form of the package's parabolic refinement: the vertex
    around every peak ``db[row, col]`` at once, in axis units, a grid
    endpoint or a fit that opens upward keeping the grid point.  The
    package's Python-float loop must give these locations bit for bit."""
    loc = axis[col].astype(float)
    inner = np.flatnonzero((col > 0) & (col < axis.size - 1))
    r, i = row[inner], col[inner]
    y0, y1, y2 = db[r, i - 1], db[r, i], db[r, i + 1]
    denom = y0 - 2.0 * y1 + y2
    fit = (denom < 0.0) & np.isfinite(denom)
    inner, i = inner[fit], i[fit]
    delta = np.clip(0.5 * (y0[fit] - y2[fit]) / denom[fit], -1.0, 1.0)
    step = np.where(delta >= 0, axis[i + 1] - axis[i], axis[i] - axis[i - 1])
    loc[inner] = axis[i] + delta * step
    return loc


def _refine_parabolic(y_db: np.ndarray, idx: int, axis: np.ndarray) -> float:
    """3-point parabolic vertex around an interior peak, in axis units."""
    if idx <= 0 or idx >= y_db.size - 1:
        return float(axis[idx])
    y0, y1, y2 = y_db[idx - 1], y_db[idx], y_db[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0 or not np.isfinite(denom):
        return float(axis[idx])
    delta = 0.5 * (y0 - y2) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    step = axis[idx + 1] - axis[idx] if delta >= 0 else axis[idx] - axis[idx - 1]
    return float(axis[idx] + delta * step)


def detect_peaks(
    spectrum: PseudoSpectrum,
    max_count: int | None = None,
    include_edges: bool = False,
    min_separation: float = 0.0,
) -> list[Peak]:
    """Local maxima at least :data:`PEAK_PROMINENCE_DB` prominent, strongest
    first, each located by a parabolic fit through its neighbours.

    Ties in height are broken by ascending axis location.  With
    ``include_edges`` the grid endpoints count as peaks (used for range
    spectra, where a target near a region boundary must not be lost).
    ``min_separation`` (in axis units) suppresses duplicate peaks riding
    on one lobe.
    """
    y = spectrum.db
    distance = None
    if min_separation > 0.0 and spectrum.axis.size > 1:
        step = float(spectrum.axis[1] - spectrum.axis[0])
        distance = max(int(round(min_separation / step)), 1)
    pad = [-np.inf] if include_edges else []
    idx, props = find_peaks(
        np.concatenate((pad, y, pad)), prominence=PEAK_PROMINENCE_DB, distance=distance
    )
    idx = idx - len(pad)
    prominences = props["prominences"]
    peaks = [
        Peak(
            location=_refine_parabolic(y, int(i), spectrum.axis),
            height_db=float(y[int(i)]),
            prominence_db=float(p),
            index=int(i),
        )
        for i, p in zip(idx, prominences)
    ]
    peaks.sort(key=lambda p: (-p.height_db, p.location))
    if max_count is not None:
        peaks = peaks[:max_count]
    return peaks


def classify_range_spectrum(theta_deg, spec, bounds):
    """The one-candidate true/cross verdict, on :func:`detect_peaks` above."""
    z_f, z_r = bounds
    peaks = detect_peaks(spec, include_edges=True)
    significant = [
        p for p in peaks if p.height_db >= SIGNIFICANCE_DB and z_f <= p.location <= z_r
    ]
    label, chosen = ("true", significant) if significant else ("cross", peaks[:1])
    return [
        ClassifiedTarget(
            theta_deg=theta_deg,
            range_m=p.location,
            label=label,
            significance_db=p.height_db,
        )
        for p in chosen
    ]


def association_bruteforce(est_theta, est_range, true_theta, true_range, range_scale, rtol):
    """The pairs of the association rule, over every injection of the smaller
    side into the larger: the least L1 total within ``rtol`` of the largest
    pair cost, then the least squared error within ``rtol`` of the largest
    squared pair cost, then the lexicographically least pairs (sorted by
    estimate)."""
    n_e, n_t = len(est_theta), len(true_theta)
    l1 = [[0.0] * n_t for _ in range(n_e)]
    sq = [[0.0] * n_t for _ in range(n_e)]
    for i in range(n_e):
        for j in range(n_t):
            terms = [abs(est_theta[i] - true_theta[j])]
            if est_range is not None:
                terms.append(abs(est_range[i] - true_range[j]) / range_scale)
            l1[i][j] = sum(terms)
            sq[i][j] = sum(t**2 for t in terms)
    if n_e <= n_t:
        candidates = [tuple(enumerate(cols)) for cols in permutations(range(n_t), n_e)]
    else:
        candidates = [
            tuple(sorted((i, j) for j, i in enumerate(rows)))
            for rows in permutations(range(n_e), n_t)
        ]
    for table in (l1, sq):
        totals = [sum(table[i][j] for i, j in pairs) for pairs in candidates]
        limit = min(totals) + rtol * max(1.0, max(max(row) for row in table))
        candidates = [p for p, total in zip(candidates, totals) if total <= limit]
    return min(candidates)
