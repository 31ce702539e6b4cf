"""Minimal reverse-mode automatic differentiation over float arrays.

Just enough operations for the models in this package: elementwise
arithmetic, broadcasting matmul, relu, exp, log-softmax, sums, reshaping,
slicing, and concatenation.  Gradients are validated against central
finite differences in the test suite.

A tensor keeps the float dtype of its data (anything else becomes
float64); constants, seed gradients and optimizer state take the dtype of
the tensors they meet, so a float32 model computes in float32 throughout.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A float array plus the tape bookkeeping for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad needs a scalar")
            grad = np.ones_like(self.data)
        # depth-first post-order without recursion: no recursion limit,
        # and no self-referencing closure that would keep the tape alive
        # until the cyclic collector runs
        topo: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))] if self.requires_grad else []
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        # leaves keep accumulating across calls until zero_grad; fresh
        # intermediates start at None every forward pass, and each grad
        # starts as its first contribution (see _accumulate)
        incoming = np.array(grad, dtype=self.data.dtype).reshape(
            self.data.shape)
        self.grad = incoming if self.grad is None else self.grad + incoming
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def _as_tensor(x, like=None) -> Tensor:
    """x, or the constant x in the dtype of the tensor like: a float64
    constant would promote a float32 operand, even a 0-d one (NEP 50)."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, like.data.dtype if like else None))


def _operands(a, b) -> tuple[Tensor, Tensor]:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    return a, _as_tensor(b, a)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _accumulate(t: Tensor, contrib, g: np.ndarray) -> None:
    """t.grad += contrib, without a zero fill: the first contribution
    becomes t.grad.  A fresh array (a matmul or elementwise product) is
    kept as it is; one that views the upstream gradient g (a reshape,
    transpose, slice or broadcast of it) is copied."""
    if t.grad is not None:
        t.grad += contrib
    elif np.may_share_memory(contrib, g):
        t.grad = np.array(contrib, order="C")
    else:
        t.grad = np.asarray(contrib)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sums grad over the axes that broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape), g)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape), g)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape), g)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape), g)

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """``np.matmul`` of two operands of at least two dimensions each; the
    batch dimensions broadcast.  Runs on BLAS."""
    a, b = _operands(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul needs operands of at least two dimensions")
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(
                np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape), g)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(
                np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape), g)

    return _make(data, (a, b), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0.0), g)

    return _make(data, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * data, g)

    return _make(data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - logsum

    def backward(g):
        soft = np.exp(data)
        _accumulate(a, g - soft * g.sum(axis=axis, keepdims=True), g)

    return _make(data, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape), g)

    return _make(data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape), g)

    return _make(data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    data = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inverse), g)

    return _make(data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accumulate(t, g[tuple(index)], g)

    return _make(data, tuple(tensors), backward)


def getitem(a, key) -> Tensor:
    a = _as_tensor(a)
    data = a.data[key]

    basic = all(isinstance(k, (slice, int, type(None), type(Ellipsis)))
                for k in (key if isinstance(key, tuple) else (key,)))

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if basic:  # a view: no index repeats
            a.grad[key] += g
        else:
            np.add.at(a.grad, key, g)

    return _make(data, (a,), backward)


def softmax_tensor(logits, axis: int = -1) -> Tensor:
    """Softmax on the tape."""
    return exp(log_softmax(logits, axis=axis))


def softmax(a, axis: int = -1) -> np.ndarray:
    """Plain ndarray softmax for inference paths, in float64 for any input
    dtype: float32 would round small probabilities to ties at 0."""
    a = np.asarray(a, dtype=np.float64)
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def draw_normal(rng: np.random.Generator, scale: float, shape,
                dtype) -> np.ndarray:
    """rng.normal(0.0, scale, shape) cast to dtype."""
    return np.asarray(rng.normal(0.0, scale, shape), dtype)


class AdamW:
    """Adam with decoupled weight decay.

    The update runs in place on the moments and the parameters, block by
    block through a two-row scratch buffer shared by all parameters.  Its
    operations are those of the textbook formula in the same order, so the
    result is bit-identical to evaluating it with whole-array temporaries.
    step() updates every parameter that has a gradient; update() takes one
    part's gradient, so a large tensor can be updated slice by slice.
    """

    # elements per scratch row: the six 256 KiB rows one block touches
    # stay in cache across its thirteen operations
    BLOCK = 1 << 15

    def __init__(self, params: list[Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999),
                 weight_decay: float = 0.0, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self._moments = {id(p): (np.zeros(p.data.shape, p.data.dtype),
                                 np.zeros(p.data.shape, p.data.dtype))
                         for p in params}
        largest = max((p.data.size for p in params), default=0)
        # float32 unless a parameter is wider
        self._scratch = np.empty((2, min(largest, self.BLOCK)), np.result_type(
            np.float32, *(p.data.dtype for p in params)))

    def step(self):
        self.step_count += 1
        for p in self.params:
            if p.grad is not None:
                self.update(p, p.grad)

    def update(self, p: Tensor, grad: np.ndarray, key=...) -> None:
        """Updates p.data[key] and its moments by grad at this step."""
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        m, v = self._moments[id(p)]
        data = p.data[key]
        flat = [a.reshape(-1) for a in (data, grad, m[key], v[key])]
        for start in range(0, data.size, self.BLOCK):
            w, g, m_, v_ = (a[start:start + self.BLOCK] for a in flat)
            x, y = self._scratch[:, :w.size]
            # m = b1 * m + (1 - b1) * g
            np.multiply(m_, b1, out=m_)
            np.add(m_, np.multiply(g, 1 - b1, out=x), out=m_)
            # v = b2 * v + ((1 - b2) * g) * g
            np.multiply(v_, b2, out=v_)
            np.multiply(np.multiply(g, 1 - b2, out=x), g, out=x)
            np.add(v_, x, out=v_)
            # w -= lr * (mhat / (sqrt(vhat) + eps) + wd * w)
            np.divide(m_, 1 - b1 ** t, out=x)
            np.divide(v_, 1 - b2 ** t, out=y)
            np.add(np.sqrt(y, out=y), self.eps, out=y)
            np.divide(x, y, out=x)
            # skipped at 0, where it could only turn x = -0 into +0, and
            # w - lr * x would be w either way
            if self.weight_decay:
                np.add(x, np.multiply(w, self.weight_decay, out=y), out=x)
            np.subtract(w, np.multiply(x, self.lr, out=x), out=w)
        if not data.flags.c_contiguous:  # reshape updated a copy
            data[...] = flat[0].reshape(data.shape)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class EarlyStopping:
    """Patience-based early stopping on a per-epoch score, higher is better.

    update(score) after each scored epoch snapshots the parameters when the
    score beats every earlier one, and returns True once `patience` scored
    epochs in a row (patience >= 1) have not.  With final=True (the last
    epoch that will run) a best score takes no snapshot: the parameters in
    place are the best.  restore() puts back the parameters of the best
    epoch; when no epoch was ever scored (no holdout or dev set) or the
    final one was best, it leaves the parameters in place.
    """

    def __init__(self, params: list[Tensor], patience: int):
        self.params = params
        self.patience = patience
        self.best_score = -np.inf
        self.best: list[np.ndarray] | None = None
        self._left = patience

    def update(self, score: float, final: bool = False) -> bool:
        if score > self.best_score:
            self.best_score = score
            self.best = None  # free the old snapshot before taking one
            if not final:
                self.best = [p.data.copy() for p in self.params]
            self._left = self.patience
            return False
        self._left -= 1
        return self._left <= 0

    def restore(self) -> None:
        if self.best is not None:
            for p, data in zip(self.params, self.best):
                p.data = data
