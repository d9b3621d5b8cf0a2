"""Independent oracles used by the tests.

Everything here recomputes expected values from first principles (direct
recursions, matrix powers, finite differences, brute-force simulation) and
deliberately avoids the library's own signal-path code.
"""

import numpy as np


def simulate_dt(a, b, c, x0, u_seq):
    """Plain discrete recursion; returns (xs, ys) including the initial state."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b) if np.ndim(b) > 1 else np.asarray(b, dtype=float)[:, None]
    c = np.atleast_2d(c)
    x = np.asarray(x0, dtype=float).copy()
    xs, ys = [], []
    for u in u_seq:
        xs.append(x.copy())
        ys.append(c @ x)
        x = a @ x + b @ np.atleast_1d(u)
    return np.asarray(xs), np.asarray(ys)


def lti_sim(realization, u_seq):
    """Outputs of s+ = F s + G u, y = H s + J u from s = 0, one row per input."""
    f, g, h, j = realization
    s = np.zeros(f.shape[0])
    ys = []
    for u in u_seq:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        ys.append(h @ s + j @ u)
        s = f @ s + g @ u
    return np.asarray(ys)


def shift_apply(coeffs, y):
    """sum_j coeffs[j] * y[t+j] along a recorded trajectory (column-wise)."""
    y = np.asarray(y, dtype=float)
    deg = len(coeffs) - 1
    n = y.shape[0] - deg
    out = np.zeros((n,) + y.shape[1:])
    for j, cj in enumerate(coeffs):
        out += cj * y[j : j + n]
    return out


def d1_stencil(y, h):
    """Five-point first derivative at interior points (index 2..N-3)."""
    y = np.asarray(y, dtype=float)
    return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)


def d2_stencil(y, h):
    """Five-point second derivative at interior points (index 2..N-3)."""
    y = np.asarray(y, dtype=float)
    return (-y[4:] + 16.0 * y[3:-1] - 30.0 * y[2:-2] + 16.0 * y[1:-3] - y[:-4]) / (
        12.0 * h * h
    )


def interactor_apply_ct(rows_coeffs, y, h):
    """Apply diag{d_i(s)} to a sampled trajectory by finite differences.

    rows_coeffs: ascending coefficient lists, degree <= 2.  Returns values at
    interior indices 2..N-3.
    """
    y = np.asarray(y, dtype=float)
    cols = []
    for i, coeffs in enumerate(rows_coeffs):
        yi = y[:, i]
        acc = coeffs[0] * yi[2:-2]
        if len(coeffs) > 1:
            acc = acc + coeffs[1] * d1_stencil(yi, h)
        if len(coeffs) > 2:
            acc = acc + coeffs[2] * d2_stencil(yi, h)
        cols.append(acc)
    return np.column_stack(cols)


def inverse_poly_impulse(pm_coeffs, count):
    """Impulse response of 1/Pm(z) by direct recursion; returns y(1..count)."""
    pm = np.asarray(pm_coeffs, dtype=float)
    deg = pm.size - 1
    y = np.zeros(count + deg + 1)
    r = np.zeros(count + 1)
    r[0] = 1.0
    # y(t+deg) = -sum_j pm[j] y(t+j) + r(t)
    for t in range(0, count + 1):
        if deg == 0:
            y[t] = r[t]
        else:
            acc = r[t]
            for j in range(deg):
                acc -= pm[j] * y[t + j]
            y[t + deg] = acc
    return y[1 : count + 1]


def markov_of(a, b, c, count):
    out = []
    m = np.atleast_2d(b) if np.ndim(b) > 1 else np.asarray(b, dtype=float)[:, None]
    a = np.atleast_2d(a)
    c = np.atleast_2d(c)
    for _ in range(count):
        out.append(c @ m)
        m = a @ m
    return out


def of_closed_loop(plant_a, plant_b, plant_c, lam_coeffs, th1, th2, th20, th3):
    """State-space realization of the SISO output-feedback closed loop.

    Built from scratch: plant plus two regressor filter chains in
    controllable canonical form, with the reference input as the external
    drive.  Returns (Acl, Bcl, Ccl).
    """
    a = np.atleast_2d(plant_a)
    b = np.asarray(plant_b, dtype=float).reshape(-1)
    c = np.atleast_2d(plant_c)[0]
    n = a.shape[0]
    k = len(lam_coeffs) - 1  # filter order = n-1
    fmat = np.zeros((k, k))
    if k > 0:
        fmat[:-1, 1:] = np.eye(k - 1)
        fmat[-1, :] = -np.asarray(lam_coeffs[:k], dtype=float)
    g = np.zeros(k)
    if k > 0:
        g[-1] = 1.0
    th1 = np.asarray(th1, dtype=float)
    th2 = np.asarray(th2, dtype=float)
    dim = n + 2 * k
    acl = np.zeros((dim, dim))
    bcl = np.zeros(dim)
    # u = th1.p1 + th2.p2 + th20 y + th3 r
    acl[:n, :n] = a + th20 * np.outer(b, c)
    acl[:n, n : n + k] = np.outer(b, th1)
    acl[:n, n + k :] = np.outer(b, th2)
    acl[n : n + k, :n] = th20 * np.outer(g, c)
    acl[n : n + k, n : n + k] = fmat + np.outer(g, th1)
    acl[n : n + k, n + k :] = np.outer(g, th2)
    acl[n + k :, :n] = np.outer(g, c)
    acl[n + k :, n + k :] = fmat
    bcl[:n] = b * th3
    bcl[n : n + k] = g * th3
    ccl = np.zeros(dim)
    ccl[:n] = c
    return acl, bcl, ccl


def of_gains(nominal, n):
    """(theta1, theta2, theta20, theta3) of a one-channel output-feedback Theta*.

    Read off its rows [theta1; theta2; theta20; ...] (nu = n) and theta3 = 1/kp.
    """
    th = nominal.theta_star[:, 0]
    return th[: n - 1], th[n - 1 : 2 * n - 2], float(th[2 * n - 2]), 1.0 / nominal.kp[0, 0]


def mimo_of_closed_loop(a, b, c, lam_coeffs, k1, k2):
    """(Acl, Bcl, Ccl) of the loop u = K1^T [w1; w2; y] + K2 r, driven by r.

    Built from scratch: w1 and w2 hold D^p / lam(D) of u and of y for
    p = 0..deg lam - 1, power-major (entry p m + j is power p of channel j),
    as the state of a controllable canonical chain per channel.
    """
    n, m = b.shape
    k = len(lam_coeffs) - 1
    km = k * m
    fmat = np.eye(k, k=1)
    fmat[-1:] = -np.asarray(lam_coeffs[:k], dtype=float)
    f = np.kron(fmat, np.eye(m))
    g = np.zeros((km, m))
    if k:
        g[-m:] = np.eye(m)
    dim = n + 2 * km
    aopen = np.zeros((dim, dim))
    aopen[:n, :n] = a
    aopen[n : n + km, n : n + km] = f
    aopen[n + km :, :n] = g @ c
    aopen[n + km :, n + km :] = f
    bu = np.vstack([b, g, np.zeros((km, m))])
    read = np.zeros((2 * km + m, dim))
    read[: 2 * km, n:] = np.eye(2 * km)
    read[2 * km :, :n] = c
    ccl = np.hstack([c, np.zeros((m, 2 * km))])
    return aopen + bu @ k1.T @ read, bu @ k2, ccl


def rk4_sim(f, x0, h, steps):
    """Reference fixed-step RK4 integration, returning states at every grid point."""
    x = np.asarray(x0, dtype=float).copy()
    out = [x.copy()]
    t = 0.0
    for _ in range(steps):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        out.append(x.copy())
    return np.asarray(out)


def linear_recursion(p, x0, drives):
    """States of x+ = p x + d from x0, one sequential step per drive."""
    xs = [np.asarray(x0, dtype=float)]
    for d in drives:
        xs.append(p @ xs[-1] + d)
    return np.asarray(xs)


def pe_multisine(n_channels, is_dt, t, seed=7):
    """The reference-input fit's excitation summed term by term at the times t.

    Draws the same frequencies, phases and amplitudes as linsys._pe_input and
    returns (values of shape (len(t), n_channels), (freqs, phases, amps)),
    each parameter array of shape (n_channels, 8).
    """
    rng = np.random.default_rng(seed)
    base = np.array([0.131, 0.279, 0.457, 0.683, 0.911, 1.187, 1.459, 1.733])
    base = base if is_dt else 2.0 * base
    phases = rng.uniform(0, 2 * np.pi, size=(n_channels, base.size))
    amps = rng.uniform(0.4, 1.0, size=(n_channels, base.size))
    freqs = np.array([base * (1 + 0.13 * ch) for ch in range(n_channels)])
    t = np.asarray(t, dtype=float)
    vals = np.full((t.size, n_channels), 0.3)
    for ch in range(n_channels):
        for f, p, a in zip(freqs[ch], phases[ch], amps[ch]):
            vals[:, ch] += a * np.sin(f * t + p)
    return vals, (freqs, phases, amps)


# -- true data of feedback_lin.benchmark's follower, from its theta_star ------------


def fl_deriv(theta_star, x, u):
    """dx = F(x) theta* + G(x) u, written out."""
    th1, th2, th3 = theta_star
    return np.array([th1 * x[1] + (1.0 + x[1] ** 2) * u[0], th2 * x[2] + th3 * np.sin(x[0]),
                     th3 * x[0] + u[1]])


def fl_lie1(theta_star, x):
    """[L_f h1, L_f h2]: the first output derivatives along the drift."""
    th1, th2, th3 = theta_star
    return np.array([th1 * x[1], th2 * x[2] + th3 * np.sin(x[0])])


def fl_b(theta_star, x):
    """b(x) of [D y1, D^2 y2] = b(x) + A(x) u."""
    th1, th2, th3 = theta_star
    return np.array([th1 * x[1], th1 * th3 * x[1] * np.cos(x[0]) + th2 * th3 * x[0]])


def fl_a(theta_star, x):
    """The decoupling matrix A(x) of [D y1, D^2 y2] = b(x) + A(x) u."""
    _, th2, th3 = theta_star
    g11 = 1.0 + x[1] ** 2
    return np.array([[g11, 0.0], [th3 * np.cos(x[0]) * g11, th2]])
