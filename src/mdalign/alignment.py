"""Multi-domain alignment layers: per-domain weighted normalization.

Each sample in a batch carries a probability row over the domains (the k
latent source domains plus the target).  Column-normalizing those rows gives
per-sample weights for estimating a mean and a biased variance per domain and
channel; the same rows then mix the per-domain normalized copies of every
sample back into a single output.  With one domain and unit weights the layer
collapses to ordinary batch normalization.

The backward pass is exact: gradients flow to the inputs through the direct
path and through the batch statistics, and to the assignment probabilities
through the mixing weights and the per-column normalizer that couples all
samples assigned to a domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .primitives import ParamBlock

__all__ = [
    "AlignConfig",
    "AlignmentLayer",
    "AlphaWeights",
    "DomainStats",
    "RunningStats",
    "UninitializedStatsError",
    "compute_alpha",
    "weighted_moments",
]


# weight of each training batch's statistics in the running averages
RUNNING_MOMENTUM = 0.1


class UninitializedStatsError(RuntimeError):
    """A domain needs statistics that were never estimated."""


@dataclass
class AlignConfig:
    """Knobs of an alignment layer.

    eps guards the variance inside the square root; zero_mass_threshold is
    the total column weight below which a domain is treated as absent from
    the batch.  It must stay below 1, the mass of a column that holds one
    hard-assigned row, or a batch's target column would count as absent.
    The running statistics used at inference average the batch statistics
    with momentum RUNNING_MOMENTUM.
    """

    eps: float = 1e-5
    affine: bool = True
    zero_mass_threshold: float = 1e-6

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if not 0 <= self.zero_mass_threshold < 1:
            raise ValueError("zero_mass_threshold must lie in [0, 1)")


@dataclass
class AlphaWeights:
    """Column-normalized assignment weights.

    alpha[i, d] = w[i, d] / sum_j w[j, d] for live columns; columns whose
    total mass is at or below the threshold are flagged dead and left all
    zero instead of dividing by a vanishing normalizer.  all_live records
    once whether every column is live, so the layers that share these
    weights do not test the mask again.
    """

    alpha: np.ndarray
    live: np.ndarray
    total_weight: np.ndarray
    all_live: bool


@dataclass
class DomainStats:
    """Per-domain, per-channel weighted mean and biased variance.

    Rows of dead (zero-mass) domains are zero-filled and must be treated as
    invalid; consult `live` before using them.
    """

    mean: np.ndarray
    var: np.ndarray
    live: np.ndarray


def compute_alpha(weights: np.ndarray, threshold: float = 1e-6) -> AlphaWeights:
    """Normalize assignment probabilities per domain column into sample weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"assignment matrix must be rank 2, got {w.ndim}")
    # written so that NaN, which fails every comparison, is rejected too
    if w.size and not (w.min() >= 0 and w.max() < np.inf):
        raise ValueError("assignment weights must be finite and non-negative")
    total = w.sum(axis=0)
    live = total > threshold
    alpha = np.divide(w, total, out=np.zeros_like(w), where=live)
    return AlphaWeights(alpha=alpha, live=live, total_weight=total, all_live=bool(live.all()))


def _as_bcm(x: np.ndarray) -> np.ndarray:
    """View [b, c] or [b, c, h, w] input as [b, c, positions]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[:, :, None]
    if x.ndim == 4:
        return x.reshape(x.shape[0], x.shape[1], -1)
    raise ValueError(f"expected rank 2 or 4 input, got rank {x.ndim}")


def weighted_moments(x: np.ndarray, aw: AlphaWeights) -> DomainStats:
    """Weighted per-domain moments of a batch.

    Rank-4 inputs spread each sample's weight uniformly over its spatial
    positions, so the statistics cover all activations of a channel while
    still weighting per sample.
    """
    xr = _as_bcm(x)
    if aw.alpha.shape[0] != xr.shape[0]:
        raise ValueError(f"{aw.alpha.shape[0]} weight rows for {xr.shape[0]} samples")
    return _domain_moments(aw, *_sample_moments(xr))[0]


def _over_positions(a: np.ndarray, reduce) -> np.ndarray:
    """reduce (np.mean or np.sum) of [b, c, positions] over positions.

    With one position the reduction returns exactly that element, so the
    result is a view of it instead of a new array; callers must not write to it.
    """
    return a[:, :, 0] if a.shape[2] == 1 else reduce(a, axis=2)


def _times_t(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m.T for a small [domains, c] m, transposed to row-major first: OpenBLAS runs that twice as fast."""
    return a @ np.ascontiguousarray(m.T)


def _times_into(xr: np.ndarray, m: np.ndarray) -> np.ndarray:
    """xr * m[:, :, None] for [b, c, positions] xr and a fresh [b, c] m, written into m when there is one position."""
    return np.multiply(xr, m[:, :, None], out=m[:, :, None] if xr.shape[2] == 1 else None)


def _sample_moments(xr: np.ndarray):
    """Per-sample, per-channel mean and mean square of [b, c, positions] input."""
    return _over_positions(xr, np.mean), _over_positions(xr**2, np.mean)


def _domain_moments(aw: AlphaWeights, sample_mean: np.ndarray, sample_sq: np.ndarray):
    """(weighted_moments, alpha^T sample_sq) from the per-sample moments of its input; shares aw's live mask.

    The second, the weighted mean square [domains, c], is the one backward reads; it is not zeroed on dead columns.
    """
    mean = aw.alpha.T @ sample_mean
    mean_sq = aw.alpha.T @ sample_sq
    var = np.maximum(mean_sq - mean**2, 0.0)
    if not aw.all_live:
        mean[~aw.live] = var[~aw.live] = 0.0
    return DomainStats(mean=mean, var=var, live=aw.live), mean_sq


class RunningStats:
    """Exponential running averages of per-domain statistics for inference.

    Domains never updated stay flagged uninitialized; asking the layer to
    normalize against them raises rather than silently substituting."""

    def __init__(self, n_domains: int, channels: int):
        self.mean = np.zeros((n_domains, channels))
        self.var = np.ones((n_domains, channels))
        self.count = np.zeros(n_domains, dtype=np.int64)

    def initialized(self) -> np.ndarray:
        return self.count > 0

    def update(self, stats: DomainStats) -> None:
        """avg <- (1 - RUNNING_MOMENTUM) * avg + RUNNING_MOMENTUM * batch for the live domains' mean and var.

        Dead domains' rows are left untouched.
        """
        live = stats.live[:, None]
        m = RUNNING_MOMENTUM
        np.copyto(self.mean, (1.0 - m) * self.mean + m * stats.mean, where=live)
        np.copyto(self.var, (1.0 - m) * self.var + m * stats.var, where=live)
        self.count += stats.live


@dataclass
class _Cache:
    """What backward() reads of a forward(): the input, the assignment's free rows and the small per-domain arrays.

    free is Assignment.free, a slice or an index array; mean_sq is alpha^T times the per-sample mean
    squares, which forward forms for the variance and backward's free-row path reads.
    """

    x_shape: tuple
    xr: np.ndarray
    w: np.ndarray
    free: slice | np.ndarray
    aw: AlphaWeights
    mean: np.ndarray
    mean_sq: np.ndarray
    inv_std: np.ndarray


class AlignmentLayer:
    """Normalization layer mixing per-domain statistics by assignment weights.

    Owns the optional per-channel affine parameters (shared across domains)
    and the running statistics used at inference.  A layer instance belongs
    to one training thread; inference against frozen running statistics is
    read-only.
    """

    def __init__(self, channels: int, n_domains: int, cfg: AlignConfig | None = None):
        if channels < 1 or n_domains < 1:
            raise ValueError("channels and n_domains must be >= 1")
        self.cfg = cfg if cfg is not None else AlignConfig()
        self.channels = channels
        self.n_domains = n_domains
        self.running = RunningStats(n_domains, channels)
        if self.cfg.affine:
            self.gamma = ParamBlock(np.ones(channels))
            self.beta = ParamBlock(np.zeros(channels))
        else:
            self.gamma = None
            self.beta = None

    def _check(self, x: np.ndarray, w: np.ndarray) -> None:
        if w.ndim != 2 or w.shape[0] != x.shape[0]:
            raise ValueError(f"assignment rows {w.shape} do not match batch {x.shape[0]}")
        if w.shape[1] != self.n_domains:
            raise ValueError(f"layer built for {self.n_domains} domains, got {w.shape[1]}")
        if x.shape[1] != self.channels:
            raise ValueError(f"layer built for {self.channels} channels, got {x.shape[1]}")

    def _scale(self, inv_std: np.ndarray) -> np.ndarray:
        """gamma folded into 1/sigma, [domains, channels]; inv_std itself without the affine."""
        return inv_std * self.gamma.value if self.cfg.affine else inv_std

    def _normalize(self, xr: np.ndarray, w: np.ndarray, mean: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
        """The output over [b, c, positions] input in one buffer, as forward() and infer() both make it.

        With s = inv_std * gamma, y_i = x_i * (w_i @ s) - w_i @ (mean * s) + beta.  beta is not folded in:
        w_i @ beta is beta only for rows that sum to 1, and the gradient audit probes rows that do not.
        Domains without statistics have inv_std rows of zero.
        """
        scale = self._scale(inv_std)
        y = _times_into(xr, w @ scale)
        y -= (w @ (mean * scale))[:, :, None]
        if self.cfg.affine:
            y += self.beta.value[None, :, None]
        return y

    def alpha(self, assignment) -> AlphaWeights:
        """The assignment's column-normalized weights under this layer's zero-mass threshold."""
        return compute_alpha(assignment.probs, self.cfg.zero_mass_threshold)

    def forward(self, x: np.ndarray, assignment, update_running: bool = True, aw: AlphaWeights | None = None):
        """Normalize a training batch with per-domain batch statistics.

        Returns (y, cache); the cache feeds backward().  Running statistics
        are updated for every domain with batch mass unless update_running is
        off (finite-difference probing relies on a side-effect-free forward).
        A domain whose column carries weight but has no batch mass falls back
        to its running statistics, treated as constants; if those were never
        initialized the batch is degenerate and an error is raised.

        aw, when given, must be alpha(assignment) of a layer with this
        layer's AlignConfig: the layers of one pass share one assignment
        matrix, so a model normalizes its columns once and hands the same
        read-only weights to each layer.  Left out, the layer computes them.
        """
        w = assignment.probs
        self._check(x, w)
        xr = _as_bcm(x)
        if aw is None:
            aw = self.alpha(assignment)
        elif aw.alpha.shape != w.shape:
            raise ValueError(f"alpha weights {aw.alpha.shape} do not match assignment {w.shape}")
        stats, mean_sq = _domain_moments(aw, *_sample_moments(xr))

        mean, var, used = stats.mean, stats.var, aw.live
        fallback = None if aw.all_live else ~used & (w.max(axis=0) > 0.0)
        if fallback is not None and fallback.any():
            missing = fallback & ~self.running.initialized()
            if missing.any():
                raise UninitializedStatsError(
                    f"domains {np.flatnonzero(missing).tolist()} carry weight but have "
                    "neither batch mass nor initialized running statistics"
                )
            # stats keeps the batch moments for the running update
            mean, var = mean.copy(), var.copy()
            mean[fallback] = self.running.mean[fallback]
            var[fallback] = self.running.var[fallback]
            used = used | fallback

        inv_std = np.divide(1.0, np.sqrt(var + self.cfg.eps), out=np.zeros_like(mean), where=used[:, None])
        y = self._normalize(xr, w, mean, inv_std)
        if update_running:
            self.running.update(stats)
        cache = _Cache(
            x_shape=x.shape, xr=xr, w=w, free=assignment.free, aw=aw, mean=mean, mean_sq=mean_sq, inv_std=inv_std
        )
        return y.reshape(x.shape), cache

    def backward(self, cache: _Cache, grad_out: np.ndarray):
        """Exact gradients of forward(): (grad_x, grad_w, grad_gamma, grad_beta).

        grad_x covers the direct path plus the paths through every live domain's mean and variance;
        grad_w the direct mixing path plus the path through the column-normalized weights, whose
        normalizer couples all samples in a domain.  grad_w is built on the assignment's free rows
        only: fixed rows get exact zeros without being built, and with every row fixed nothing of it
        is computed.  Fallback domains, normalized with running statistics held constant, contribute
        only direct paths.

        Every path is built from two per-domain [domains, c] reductions of the upstream gradient g,
        taken before the affine scale: P = w^T sum_pos g and Q = (w^T sum_pos (g x) - mean P) / sigma.
        Then grad_gamma = sum_d Q, and with G1 = gamma P, G2 = gamma Q, v = G2 / sigma^2,
        u = G1 / sigma - mean v and alpha over the live domains,
        grad_x = (w @ (gamma/sigma)) g - [x (alpha @ v) + alpha @ u] / n_pos.
        For a free row i and a live domain d of total weight T_d, with h = v / 2, the row's mean xbar_i
        and mean square xsq_i over positions, and m2 = alpha^T xsq (forward's mean_sq),
        grad_w[i, d] = direct part + (mean_d . u_d + m2_d . h_d - xbar_i . u_d - xsq_i . h_d) / T_d:
        sum_j alpha[j, d] = 1 on a live column, so the column term of the projection through
        alpha = w / T is the constant mean_d . u_d + m2_d . h_d.  No mix is formed: the cache holds the
        input and the per-domain arrays, and the free rows' per-sample moments are recomputed with
        forward's calls.  grad_out is only read.
        """
        if grad_out.shape != cache.x_shape:
            raise ValueError(f"grad shape {grad_out.shape} does not match {cache.x_shape}")
        gr = _as_bcm(grad_out)
        xr, w, mean, inv_std = cache.xr, cache.w, cache.mean, cache.inv_std
        alpha, live = cache.aw.alpha, cache.aw.live
        n_pos = xr.shape[2]
        scale = self._scale(inv_std)

        g_sum = _over_positions(gr, np.sum)
        gx_sum = _over_positions(gr * xr, np.sum)
        p = w.T @ g_sum
        q = (w.T @ gx_sum - mean * p) * inv_std
        if self.cfg.affine:
            grad_gamma, grad_beta = q.sum(axis=0), g_sum.sum(axis=0)
            g1, g2 = p * self.gamma.value, q * self.gamma.value
        else:
            grad_gamma = grad_beta = None
            g1, g2 = p, q

        sel = slice(None) if cache.aw.all_live else live
        v = (g2 * inv_std**2)[sel]
        u = (g1 * inv_std)[sel] - mean[sel] * v
        grad_w = np.zeros_like(w)
        free = cache.free
        gx_free = gx_sum[free]
        if len(gx_free):
            # Direct path of the assignment gradient: sum over channels and
            # positions of g * gamma * xhat per domain.
            grad_free = _times_t(gx_free, scale) - _times_t(g_sum[free], mean * scale)
            # the path through alpha = w / column_total and the live statistics
            sample_mean, sample_sq = _sample_moments(xr[free])
            h = v / 2.0
            through = _times_t(sample_mean, u)
            through += _times_t(sample_sq, h)
            column = (mean[sel] * u + cache.mean_sq[sel] * h).sum(axis=1)
            grad_free[:, sel] += (column - through) / cache.aw.total_weight[sel]
            grad_w[free] = grad_free
        # g * x goes before the input gradient's [b, c] temporaries are made, which can then take its memory
        del gx_sum, gx_free

        # Input gradient: direct mixing term minus the mean/variance paths of
        # the live domains, spread over spatial positions.  With every domain
        # live, a slice takes their rows without copying them.
        alpha_live = alpha[:, sel]
        paths = _times_into(xr, alpha_live @ v)
        paths += (alpha_live @ u)[:, :, None]
        if n_pos != 1:
            paths /= n_pos
        grad_x = _times_into(gr, w @ scale)
        grad_x -= paths
        del paths
        return grad_x.reshape(cache.x_shape), grad_w, grad_gamma, grad_beta

    def infer(self, x: np.ndarray, assignment) -> np.ndarray:
        """Normalize with running statistics; no state is touched.

        Every domain that receives any weight must have initialized running
        statistics.  Works for a single-sample batch since no batch moments
        are involved.
        """
        w = assignment.probs
        self._check(x, w)
        needed = w.max(axis=0) > 0.0
        missing = needed & ~self.running.initialized()
        if missing.any():
            raise UninitializedStatsError(
                f"domains {np.flatnonzero(missing).tolist()} have no running statistics"
            )
        inv_std = np.zeros_like(self.running.mean)
        inv_std[needed] = 1.0 / np.sqrt(self.running.var[needed] + self.cfg.eps)
        return self._normalize(_as_bcm(x), w, self.running.mean, inv_std).reshape(x.shape)
