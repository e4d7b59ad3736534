"""Minimal reverse-mode automatic differentiation on float64 numpy arrays,
with a gradient reversal layer and its lambda schedule."""

import heapq
import itertools
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyList, MalformedHeader, NonFinite, NonScalarLoss, OutOfRangeStep, ShapeMismatch

CHECKPOINT_MAGIC = b"VXCK"

# False inside no_grad(): new nodes record no parents and no backward rule
_recording = True
# numbers every node as it is made, so a node's number exceeds its parents'
_creation = itertools.count()


@contextmanager
def no_grad():
    """Forward only: within the block, a new Tensor records no parents and no
    backward rule, so no tape keeps an intermediate alive and nothing is
    differentiated through it. A leaf made with requires_grad=True keeps the
    flag. Blocks nest, and each restores the mode it found, also on an
    exception. The mode is process-wide, like the rest of this
    single-threaded engine."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A node of the dynamic tape: values, accumulated grad, backward rule,
    and its creation number."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self._seq = next(_creation)
        if not _recording:
            _parents, _backward = (), None
        elif not requires_grad:
            # a plain loop: this runs once per node, and a generator costs more
            for p in _parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    def accumulate(self, g):
        # never +=: the first g is stored as is and may be another leaf's grad
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self):
        self.grad = None


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_values = a.values + b.values

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return Tensor(out_values, _parents=(a, b), _backward=backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_values = a.values * b.values

    def backward(g):
        return (_unbroadcast(g * b.values, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.values, b.shape) if b.requires_grad else None)

    return Tensor(out_values, _parents=(a, b), _backward=backward)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.shape[-1] != b.values.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    out_values = a.values @ b.values

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = (g @ b.values.T if b.values.ndim == 2 else np.outer(g, b.values)).reshape(a.shape)
        if b.requires_grad:
            gb = (a.values.T @ g).reshape(b.shape)
        return ga, gb

    return Tensor(out_values, _parents=(a, b), _backward=backward)


def linear(x, w, b):
    """x @ w + b as one node: x is (n, d), w (d, h) and b (h,). The forward
    and each gradient are bitwise those of add(matmul(x, w), b)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.values.shape[-1] != w.values.shape[0] or b.values.shape != w.values.shape[1:]:
        raise ShapeMismatch(f"linear {x.shape} @ {w.shape} + {b.shape}")
    # x @ w is a fresh array, so b is added in place, with no second temporary
    out_values = x.values @ w.values
    out_values += b.values

    def backward(g):
        return (g @ w.values.T if x.requires_grad else None,
                x.values.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return Tensor(out_values, _parents=(x, w, b), _backward=backward)


def relu(x):
    """max(x, 0). The value is bitwise np.where(x > 0, x, 0.0), -0.0 and
    subnormals included, except that a NaN stays NaN."""
    x = _as_tensor(x)
    mask = x.values > 0

    def backward(g):
        return (g * mask,)

    return Tensor(np.maximum(x.values, 0.0), _parents=(x,), _backward=backward)


def tanh(x):
    x = _as_tensor(x)
    y = np.tanh(x.values)

    def backward(g):
        return (g * (1.0 - y ** 2),)

    return Tensor(y, _parents=(x,), _backward=backward)


def log(x):
    x = _as_tensor(x)

    def backward(g):
        return (g / x.values,)

    return Tensor(np.log(x.values), _parents=(x,), _backward=backward)


def softmax(x, axis=-1):
    x = _as_tensor(x)
    shifted = x.values - x.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, _parents=(x,), _backward=backward)


def _rows_of_blocks(lengths):
    """(B, max length) mask of the rows that zero-padded blocks of these
    lengths hold, in the order their rows are stacked."""
    return np.arange(max(lengths)) < np.asarray(lengths)[:, None]


def _pad(rows, valid):
    out = np.zeros(valid.shape + rows.shape[1:])
    out[valid] = rows
    return out


def attention(q, kv, q_lengths, kv_lengths, scale):
    """Block-diagonal single-head attention as one node. Utterance b owns
    q_lengths[b] rows of q (sum of L, h) and kv_lengths[b] rows of kv (sum of
    F, h); its rows of the result are softmax(q_b @ kv_b.T * scale) @ kv_b,
    stacked in order: (sum of L, h). The blocks run as one batched product
    over zero-padded (B, max L, h) and (B, max F, h) arrays whose padded
    columns are masked with -inf, so every block needs at least one kv row."""
    q, kv = _as_tensor(q), _as_tensor(kv)
    if (len(q_lengths) != len(kv_lengths) or q.values.shape[1] != kv.values.shape[1]
            or sum(q_lengths) != q.values.shape[0] or sum(kv_lengths) != kv.values.shape[0]):
        raise ShapeMismatch(f"attention {q.shape} over {kv.shape} with blocks "
                            f"{list(q_lengths)} and {list(kv_lengths)}")
    if not q_lengths or min(q_lengths) < 0 or min(kv_lengths) < 1:
        raise ShapeMismatch("attention needs at least one block and a kv row in each")
    q_rows, kv_rows = _rows_of_blocks(q_lengths), _rows_of_blocks(kv_lengths)
    Q, K = _pad(q.values, q_rows), _pad(kv.values, kv_rows)
    A = Q @ K.transpose(0, 2, 1)
    A *= scale
    np.copyto(A, -np.inf, where=~kv_rows[:, None, :])
    A -= A.max(axis=-1, keepdims=True)
    np.exp(A, out=A)
    A /= A.sum(axis=-1, keepdims=True)

    def backward(g):
        G = _pad(g, q_rows)
        dS = G @ K.transpose(0, 2, 1)
        dS -= (dS * A).sum(axis=-1, keepdims=True)
        dS *= A
        dS *= scale
        dq = (dS @ K)[q_rows] if q.requires_grad else None
        dkv = (A.transpose(0, 2, 1) @ G + dS.transpose(0, 2, 1) @ Q)[kv_rows] \
            if kv.requires_grad else None
        return dq, dkv

    return Tensor((A @ K)[q_rows], _parents=(q, kv), _backward=backward)


def cross_entropy(logits, q):
    """-sum(q * log_softmax(logits, axis=-1)) for constant soft targets q of
    the logits' shape. Weights, masks and normalisers are folded into q."""
    logits = _as_tensor(logits)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != logits.shape:
        raise ShapeMismatch(f"cross_entropy targets {q.shape} vs logits {logits.shape}")
    shifted = logits.values - logits.values.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward(g):
        return (g * (np.exp(log_p) * q.sum(axis=-1, keepdims=True) - q),)

    return Tensor(-(q * log_p).sum(), _parents=(logits,), _backward=backward)


def transpose(x):
    """Transpose of a 2-D tensor; the gradient transposes back."""
    x = _as_tensor(x)

    def backward(g):
        return (g.T,)

    return Tensor(x.values.T, _parents=(x,), _backward=backward)


def mean(x, axis=None):
    x = _as_tensor(x)
    out_values = x.values.mean(axis=axis)
    count = x.values.size if axis is None else x.values.shape[axis]

    def backward(g):
        if axis is None:
            return (np.full(x.shape, g / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape) / count,)

    return Tensor(out_values, _parents=(x,), _backward=backward)


def sum_(x, axis=None):
    x = _as_tensor(x)
    out_values = x.values.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.full(x.shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return Tensor(out_values, _parents=(x,), _backward=backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.values.shape[axis] for t in tensors]
    out_values = np.concatenate([t.values for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return Tensor(out_values, _parents=tuple(tensors), _backward=backward)


def embedding(table, ids):
    """Row lookup: table is (V, d), ids a 1-D integer array."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatch("ids must be 1-D")
    if ids.min(initial=0) < 0 or (len(ids) and ids.max() >= table.shape[0]):
        raise ShapeMismatch("embedding id out of range")

    def backward(g):
        # one bincount over (id, column) bins sums each in input order, as np.add.at
        V, d = table.shape
        flat = (ids[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(flat, weights=g.ravel(), minlength=V * d).reshape(V, d),)

    return Tensor(table.values[ids], _parents=(table,), _backward=backward)


def grl_apply(x, lam):
    """Gradient reversal layer: identity forward, gradient times -lam backward."""
    x = _as_tensor(x)
    if lam < 0:
        raise ValueError("lambda must be non-negative")

    def backward(g):
        return (-lam * g,)

    return Tensor(x.values.copy(), _parents=(x,), _backward=backward)


def backward(loss):
    """Reverse-mode sweep from a scalar loss. A node is made after its
    parents, so taking the pending nodes newest first reaches each one after
    all of its consumers, with its gradient complete. Parents that do not
    require a gradient get none. Each gradient is checked once, where it
    reaches a leaf, and a non-finite one raises NonFinite."""
    if loss.values.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}")
    # tensors hash by identity; the heap holds (-number, node), numbers are unique
    grads = {loss: np.ones_like(loss.values)}
    pending = [(-loss._seq, loss)]
    while pending:
        node = heapq.heappop(pending)[1]
        g = grads.pop(node)
        if not node._parents:
            if not np.isfinite(g).all():
                raise NonFinite("non-finite gradient reached a leaf")
            node.accumulate(g)
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if not p.requires_grad:
                continue
            # a fresh sum, never +=: pg may be a view of another node's arrays
            prev = grads.get(p)
            if prev is None:
                heapq.heappush(pending, (-p._seq, p))
                grads[p] = pg
            else:
                grads[p] = prev + pg


@dataclass(frozen=True)
class LambdaSchedule:
    gamma: float = 10.0
    total_updates: int = 1
    fixed_lambda: Optional[float] = None

    def __post_init__(self):
        # a NaN fails every comparison, so these reject it as well
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.total_updates <= 0:
            raise ValueError(f"total_updates must be positive, got {self.total_updates}")
        if self.fixed_lambda is not None and not 0 <= self.fixed_lambda < math.inf:
            raise ValueError(f"fixed_lambda must be finite and not negative, "
                             f"got {self.fixed_lambda}")


def lambda_at(schedule: LambdaSchedule, updates_done: int) -> float:
    """lambda = 2 / (1 + exp(-gamma * p)) - 1, with p the training progress."""
    if not 0 <= updates_done <= schedule.total_updates:
        raise OutOfRangeStep(f"updates_done {updates_done} outside [0, {schedule.total_updates}]")
    if schedule.fixed_lambda is not None:
        return schedule.fixed_lambda
    p = updates_done / schedule.total_updates
    return 2.0 / (1.0 + np.exp(-schedule.gamma * p)) - 1.0


def save_checkpoint(params: dict, path) -> None:
    """Little-endian binary: magic, u32 count, then per parameter
    (u32 name length, name bytes, u32 rank, u32 dims..., float64 data)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<I", len(params)))
        for name, values in params.items():
            arr = np.asarray(values, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> dict:
    """Inverse of save_checkpoint. A file cut short anywhere, followed by
    trailing bytes, or holding a NaN or infinite value raises MalformedHeader."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise MalformedHeader(f"{path}: bad checkpoint magic")
    pos = 4

    def take(n, what):
        nonlocal pos
        if n > len(blob) - pos:
            raise MalformedHeader(f"{path}: truncated {what}")
        pos += n
        return blob[pos - n:pos]

    def u32s(k, what):
        return struct.unpack(f"<{k}I", take(4 * k, what))

    params = {}
    for _ in range(u32s(1, "parameter count")[0]):
        raw = take(u32s(1, "name length")[0], "parameter name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedHeader(f"{path}: parameter name {raw!r} is not UTF-8") from None
        dims = u32s(u32s(1, f"rank of {name}")[0], f"shape of {name}")
        data = np.frombuffer(take(8 * math.prod(dims), f"parameter {name}"), dtype="<f8")
        if not np.isfinite(data).all():
            raise MalformedHeader(f"{path}: parameter {name} holds non-finite values")
        params[name] = data.reshape(dims).astype(np.float64)
    if pos != len(blob):
        raise MalformedHeader(f"{path}: {len(blob) - pos} trailing bytes")
    return params


def average_checkpoints(ckpts: list) -> dict:
    """Elementwise arithmetic mean of parameter dicts, in the first dict's
    parameter order."""
    if not ckpts:
        raise EmptyList("no checkpoints to average")
    names = set(ckpts[0])
    for c in ckpts[1:]:
        if set(c) != names or any(c[n].shape != ckpts[0][n].shape for n in names):
            raise ShapeMismatch("checkpoints disagree on parameter names or shapes")
    return {n: np.mean([c[n] for c in ckpts], axis=0) for n in ckpts[0]}
