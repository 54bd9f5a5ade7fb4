"""Dense-array neural primitives with explicit analytic backward passes.

Everything operates on float64 numpy arrays laid out [batch, channels] or
[batch, channels, height, width].  Each primitive comes as a forward/backward
pair so that every gradient in the library can be audited against central
finite differences.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ParamBlock",
    "as_tensor",
    "central_difference",
    "cross_entropy",
    "dense_backward",
    "dense_forward",
    "he_normal",
    "max_relative_error",
    "relu_backward",
    "relu_forward",
    "softmax",
    "softmax_backward",
    "softmax_cross_entropy_backward",
]


def as_tensor(x) -> np.ndarray:
    """Validate and convert to a finite float64 array of rank 1 to 4."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if not 1 <= arr.ndim <= 4:
        raise ValueError(f"rank {arr.ndim} outside the supported range 1..4")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains NaN or Inf")
    return arr


class ParamBlock:
    """A trainable tensor bundled with gradient and momentum buffers of the same shape.

    All three are updated in place and never rebound: a Model makes them views
    of its parameter arena, and a rebound array would miss the arena's SGD step.
    """

    def __init__(self, value, grad=None, momentum=None):
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self.momentum = np.zeros_like(self.value) if momentum is None else momentum

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map y = x @ weight + bias applied row-wise to a batch."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ValueError(f"dense shapes incompatible: x {x.shape}, weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ValueError(f"bias shape {bias.shape} does not match width {weight.shape[1]}")
    y = x @ weight
    y += bias
    return y


def dense_backward(x, weight, grad_out, input_grad: bool = True, weight_grad: bool = True):
    """Exact gradients of dense_forward: returns (grad_x, grad_weight, grad_bias).

    With input_grad off, grad_x is not computed and comes back as None (for a
    first layer, whose input needs no gradient).  With weight_grad off,
    grad_weight and grad_bias come back as None (for a caller that has them
    computed elsewhere, as backward_train's worker thread does).
    """
    if grad_out.shape != (x.shape[0], weight.shape[1]):
        raise ValueError(f"grad shape {grad_out.shape} incompatible with y = x{x.shape} @ W{weight.shape}")
    grad_x = grad_out @ weight.T if input_grad else None
    if not weight_grad:
        return grad_x, None, None
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); out=x rectifies x in place, for a caller that made x and needs it no more."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass the gradient where x > 0; the subgradient at 0 is taken as 0.

    Written into grad_out, which is returned: a caller that needs its
    gradient afterwards passes a copy.  Computed as grad_out * (x > 0) + 0.0,
    whose + 0.0 turns the -0.0 of a negative gradient at a dead unit into
    +0.0.  For finite gradients this equals np.where(x > 0, grad_out, 0.0)
    bit for bit, except that a -0.0 gradient at a live unit also comes back
    +0.0; a NaN or infinite gradient at a dead unit gives NaN instead of 0.
    """
    grad_out *= x > 0.0
    grad_out += 0.0
    return grad_out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with max subtraction for stability."""
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise ValueError(f"softmax expects [batch, classes], got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient on softmax outputs back to the logits."""
    inner = (grad_probs * probs).sum(axis=1, keepdims=True)
    return probs * (grad_probs - inner)


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean negative log-probability of the given labels under probs rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != probs.shape[0]:
        raise ValueError("labels must be one integer per row")
    if labels.size and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        raise ValueError("label out of range")
    picked = probs[np.arange(labels.size), labels]
    with np.errstate(divide="ignore"):
        return float(-np.log(picked).mean())


def softmax_cross_entropy_backward(probs: np.ndarray, labels) -> np.ndarray:
    """Gradient at the logits of softmax followed by cross_entropy: (p - onehot) / b."""
    labels = np.asarray(labels, dtype=np.int64)
    grad = probs.copy()
    grad[np.arange(labels.size), labels] -= 1.0
    return grad / labels.size


def he_normal(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Kaiming-style init: zero-mean normal with stddev sqrt(2 / fan_in)."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def central_difference(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function at x.

    Perturbs one entry at a time with step 1e-5 * max(1, |x_i|).  The
    array is modified in place during probing and restored afterwards, so f
    must re-read x on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        h = 1e-5 * max(1.0, abs(flat[i]))
        original = flat[i]
        flat[i] = original + h
        f_plus = f()
        flat[i] = original - h
        f_minus = f()
        flat[i] = original
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric) -> float:
    """max_i |a_i - n_i| / max(1, |a_i|, |n_i|) over matching entries."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))
