"""Property tests of the alignment layer's exact gradients over the assignment's row structure.

The gradient audit (verification._grid_assignment) always puts its free rows
last, so its free rows are one slice.  Here the free rows also come
interleaved with fixed rows, which the layer indexes with an index array; a
single free row and no free row at all are drawn too, next to near-dead and
fallback columns, rank 2 and rank 4 inputs and feature offsets up to 1e3.
Every gradient must match central differences within the audit's layer
tolerance, and every fixed row's assignment gradient must be exactly 0.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mdalign.alignment import AlignConfig, AlignmentLayer  # noqa: E402
from mdalign.assignment import Assignment  # noqa: E402
from mdalign.primitives import central_difference, max_relative_error  # noqa: E402
from mdalign.verification import LAYER_TOLERANCE  # noqa: E402

# the fallback column's entries; three of them plus FALLBACK_STEP stay below the zero-mass threshold 1e-6
FALLBACK_WEIGHT = 1e-9
FALLBACK_STEP = 2e-7


PATTERNS = ["contiguous", "interleaved", "single", "all_fixed"]


@st.composite
def layer_case(draw, pattern):
    """(x offset, z, probs, fixed, columns): source rows, then two or three fixed target rows.

    pattern places the free source rows: one contiguous block ("contiguous"),
    fixed rows interleaved among them ("interleaved"), exactly one ("single")
    or none ("all_fixed").  columns maps "near_dead" and "fallback" to the
    source column drawn for each, or None; only free rows carry weight there.
    Every other column holds at least two rows, so no live variance is 0.
    """
    k = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    rank = draw(st.sampled_from([2, 4]))
    offset = draw(st.sampled_from([0.0, 1.0, -30.0, 1e2, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free_counts = {"contiguous": (2, 6), "interleaved": (2, 5), "single": (1, 1), "all_fixed": (0, 0)}
    n_free = draw(st.integers(*free_counts[pattern]))

    columns = {"near_dead": None, "fallback": None}
    if n_free and draw(st.booleans()):
        columns["fallback"] = k - 1
    if n_free >= 2 and columns["fallback"] != 0 and draw(st.booleans()):
        columns["near_dead"] = 0
    ordinary = [d for d in range(k) if d not in columns.values()]
    # a fixed source row is one-hot on an ordinary column or on the target column
    if pattern in ("single", "all_fixed"):
        known = [d for d in ordinary for _ in range(2)]
    else:
        count = n_free - 1 if pattern == "interleaved" else draw(st.integers(0, 3))
        known = [int(d) for d in rng.choice(ordinary + [k], size=count)]
    if pattern == "interleaved":
        kinds = ["free", "known"] * len(known) + ["free"]
    else:
        before = draw(st.integers(0, len(known)))
        kinds = ["known"] * before + ["free"] * n_free + ["known"] * (len(known) - before)
    n_target = draw(st.integers(2, 3))
    b = len(kinds) + n_target

    probs = np.zeros((b, k + 1))
    fixed = np.array([kind != "free" for kind in kinds] + [True] * n_target)
    free_rows = np.flatnonzero(~fixed)
    probs[[i for i, kind in enumerate(kinds) if kind == "known"], known] = 1.0
    probs[len(kinds) :, k] = 1.0
    # free rows strictly positive everywhere, so central differences stay non-negative
    soft = rng.dirichlet(np.ones(k + 1) * 2.0, size=n_free)
    probs[free_rows] = (soft + 0.02) / (1.0 + 0.02 * (k + 1))
    if columns["near_dead"] is not None:
        probs[free_rows, columns["near_dead"]] = rng.uniform(0.005, 0.01, size=n_free)
    if columns["fallback"] is not None:
        probs[free_rows, columns["fallback"]] = 0.0
        probs[free_rows[:3], columns["fallback"]] = FALLBACK_WEIGHT
    shape = (b, c) if rank == 2 else (b, c, 2, 2)
    return offset, rng.normal(size=shape), probs, fixed, columns


@pytest.mark.parametrize("pattern", PATTERNS)
@given(data=st.data(), affine=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_layer_gradients_match_central_differences(pattern, data, affine, seed):
    """The gradients at the drawn offset against central differences of the same layer at offset 0.

    Shifting the input and the running means by one offset changes no output
    in exact arithmetic, so the exact gradients at any offset are those at 0.
    There the loss carries no rounding of E[x^2] - mean^2 at offset^2 scale,
    which at 1e3 would swamp a central difference of any step.
    """
    offset, z, probs, fixed, columns = data.draw(layer_case(pattern))
    rng = np.random.default_rng(seed)
    c, n_domains = z.shape[1], probs.shape[1]
    layer = AlignmentLayer(c, n_domains, AlignConfig(affine=affine))
    if affine:
        layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=c)
        layer.beta.value[...] = 0.3 * rng.normal(size=c)
    running_mean = rng.normal(size=(n_domains, c))
    layer.running.var[...] = rng.uniform(0.5, 2.0, size=(n_domains, c))
    layer.running.count[...] = 1
    probe = rng.normal(size=z.shape)
    free = ~fixed

    def forward(shift, w=probs):
        layer.running.mean[...] = running_mean + shift
        return layer.forward(z + shift, Assignment.unchecked(w, fixed), update_running=False)

    def loss(w=probs):
        y, _ = forward(0.0, w)
        return float((y * probe).sum())

    assert isinstance(Assignment.unchecked(probs, fixed).free, np.ndarray) == (pattern == "interleaved")
    _, cache = forward(offset)
    live = cache.aw.live
    assert columns["near_dead"] is None or live[columns["near_dead"]]
    assert columns["fallback"] is None or not live[columns["fallback"]]
    # central differences say nothing across the variance clamp at 0
    assume((1.0 / cache.inv_std[live] ** 2 - layer.cfg.eps).min() > 1e-2)
    grad_x, grad_w, grad_gamma, grad_beta = layer.backward(cache, probe)

    assert max_relative_error(grad_x, central_difference(loss, z)) <= LAYER_TOLERANCE
    if affine:
        assert max_relative_error(grad_gamma, central_difference(loss, layer.gamma.value)) <= LAYER_TOLERANCE
        assert max_relative_error(grad_beta, central_difference(loss, layer.beta.value)) <= LAYER_TOLERANCE
    assert np.all(grad_w[fixed] == 0.0) and not np.signbit(grad_w[fixed]).any()
    if not free.any():
        return

    # a fallback column's entries move with a step that keeps it below the zero-mass threshold
    probed = np.ix_(free, [d for d in range(n_domains) if d != columns["fallback"]])
    free_probs = probs[probed]

    def loss_free():
        w = probs.copy()
        w[probed] = free_probs
        return loss(w)

    numeric = central_difference(loss_free, free_probs)
    assert max_relative_error(grad_w[probed], numeric) <= LAYER_TOLERANCE
    if columns["fallback"] is not None:
        d = columns["fallback"]
        numeric = []
        for i in np.flatnonzero(free):
            up, down = probs.copy(), probs.copy()
            up[i, d] += FALLBACK_STEP
            down[i, d] = max(down[i, d] - FALLBACK_STEP, 0.0)
            numeric.append((loss(up) - loss(down)) / (up[i, d] - down[i, d]))
        assert max_relative_error(grad_w[free, d], np.array(numeric)) <= LAYER_TOLERANCE
