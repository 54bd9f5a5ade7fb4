"""Checks computed apart from the program under measurement.

Each check recomputes what mdalign produced by another route: plain loops
over domains and channels with a centered (two-pass) variance where the
layer uses one vectorized E[x^2] - mean^2 pass, central differences where the
layer uses its analytic backward, and a contingency-table NMI where the
program uses its own.  None compares against stored output.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from mdalign.assignment import Assignment


def reference_moments(x: np.ndarray, w: np.ndarray, zero_mass: float = 1e-6):
    """Per-domain weighted mean and biased variance [domains, channels] by plain loops.

    Each sample's weight is spread evenly over its spatial positions.  Every
    column that carries weight must carry mass, so no fallback is needed.
    """
    b, c = x.shape[:2]
    xr = x.reshape(b, c, -1)
    n_dom = w.shape[1]
    mean = np.zeros((n_dom, c))
    var = np.zeros((n_dom, c))
    for d in range(n_dom):
        total = math.fsum(w[:, d])
        if total <= zero_mass:
            if np.any(w[:, d] > 0):
                raise ValueError(f"domain {d} carries weight without mass")
            continue
        alpha = w[:, d] / total
        for ch in range(c):
            vals = xr[:, ch, :]
            mu = math.fsum(alpha * vals.mean(axis=1))
            mean[d, ch] = mu
            var[d, ch] = math.fsum(alpha * ((vals - mu) ** 2).mean(axis=1))
    return mean, var


def reference_mix(x, w, mean, var, gamma, beta, eps):
    """y_i = gamma * sum_d w[i, d] (x_i - mean_d) / sqrt(var_d + eps) + beta, by loops."""
    b, c = x.shape[:2]
    xr = x.reshape(b, c, -1)
    y = np.zeros_like(xr)
    for d in range(w.shape[1]):
        if not np.any(w[:, d] > 0):
            continue
        for ch in range(c):
            y[:, ch, :] += w[:, d, None] * (xr[:, ch, :] - mean[d, ch]) / math.sqrt(var[d, ch] + eps)
    y = gamma[None, :, None] * y + beta[None, :, None]
    return y.reshape(x.shape)


def check_forward_and_infer(layer, x, assignment, tol: float = 1e-9) -> list[str]:
    """The layer's training forward and infer against the plain-loop reference."""
    problems = []
    w = assignment.probs
    mean, var = reference_moments(x, w, layer.cfg.zero_mass_threshold)
    y, _ = layer.forward(x, assignment, update_running=False)
    y_ref = reference_mix(x, w, mean, var, layer.gamma.value, layer.beta.value, layer.cfg.eps)
    err = float(np.max(np.abs(y - y_ref)))
    if not err <= tol:
        problems.append(f"forward {x.shape} x {w.shape[1]} domains: max error {err:.3e} > {tol:g}")
    y_inf = layer.infer(x, assignment)
    y_inf_ref = reference_mix(
        x, w, layer.running.mean, layer.running.var, layer.gamma.value, layer.beta.value, layer.cfg.eps
    )
    err = float(np.max(np.abs(y_inf - y_inf_ref)))
    if not err <= tol:
        problems.append(f"infer {x.shape} x {w.shape[1]} domains: max error {err:.3e} > {tol:g}")
    return problems


def check_moment_property(layer, x, domains: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Under hard assignments each domain's output has mean 0 and second moment var/(var+eps).

    The layer must have no affine part, so its output is the normalized copy
    of each sample in its own domain.
    """
    b, n_dom = x.shape[0], layer.n_domains
    probs = np.zeros((b, n_dom))
    probs[np.arange(b), domains] = 1.0
    y, _ = layer.forward(x, Assignment(probs, np.ones(b, dtype=bool)), update_running=False)
    _, var = reference_moments(x, probs, layer.cfg.zero_mass_threshold)
    yr = y.reshape(b, x.shape[1], -1)
    problems = []
    for d in range(n_dom):
        rows = yr[domains == d]
        first = rows.mean(axis=(0, 2))
        second = (rows**2).mean(axis=(0, 2))
        expected = var[d] / (var[d] + layer.cfg.eps)
        err = max(float(np.max(np.abs(first))), float(np.max(np.abs(second - expected))))
        if not err <= tol:
            problems.append(f"moment property, domain {d} of {x.shape}: error {err:.3e} > {tol:g}")
    return problems


def check_gradient_probes(layer, x, assignment, rng, n_probes: int = 4, tol: float = 1e-6) -> list[str]:
    """A few central-difference probes of grad_x and of grad_w on free rows."""
    weights = rng.normal(size=x.shape)
    fixed = assignment.fixed

    def loss(xv, wv):
        y, _ = layer.forward(xv, Assignment.unchecked(wv, fixed), update_running=False)
        return math.fsum((y * weights).ravel())

    _, cache = layer.forward(x, assignment, update_running=False)
    grad_x, grad_w, _, _ = layer.backward(cache, weights)
    problems = []
    w = assignment.probs
    # free source entries far enough from 0 that the probe stays non-negative
    rows, cols = np.nonzero((w > 1e-3) & ~fixed[:, None])
    picks = rng.choice(rows.size, n_probes, replace=False)
    probes = [("grad_x", x, grad_x, np.unravel_index(int(i), x.shape)) for i in rng.choice(x.size, n_probes)]
    probes += [("grad_w", w, grad_w, (int(rows[i]), int(cols[i]))) for i in picks]
    for name, arr, analytic, index in probes:
        h = 1e-5 * max(1.0, abs(arr[index]))
        up, down = arr.copy(), arr.copy()
        up[index] += h
        down[index] -= h
        if name == "grad_x":
            numeric = (loss(up, w) - loss(down, w)) / (2.0 * h)
        else:
            numeric = (loss(x, up) - loss(x, down)) / (2.0 * h)
        a = float(analytic[index])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if not err <= tol:
            problems.append(f"{name}{index} of {x.shape}: analytic {a:.9g} vs numeric {numeric:.9g}")
    return problems


def reference_nmi(predicted, true) -> float:
    """NMI with geometric normalization from a contingency table built by counting.

    Conventions: partitions equal up to relabeling score 1; otherwise a
    partition without entropy scores 0.
    """
    predicted = [int(v) for v in predicted]
    true = [int(v) for v in true]
    n = len(predicted)
    joint = Counter(zip(predicted, true))
    p_marg = Counter(predicted)
    t_marg = Counter(true)
    if len(joint) == len(p_marg) == len(t_marg):
        return 1.0
    h_p = -math.fsum(m / n * math.log(m / n) for m in p_marg.values())
    h_t = -math.fsum(m / n * math.log(m / n) for m in t_marg.values())
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = math.fsum(
        m / n * math.log((m / n) / ((p_marg[p] / n) * (t_marg[t] / n))) for (p, t), m in joint.items()
    )
    return min(max(mi / math.sqrt(h_p * h_t), 0.0), 1.0)


def reference_accuracy(probs: np.ndarray, labels) -> float:
    hits = sum(int(np.argmax(row) == int(label)) for row, label in zip(probs, labels))
    return hits / len(labels)
