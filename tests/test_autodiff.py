import gc
import tracemalloc

import numpy as np
import pytest

from conjprop import autodiff as ad


def finite_difference(fn, arrays, step=1e-5):
    """Central-difference gradients of a scalar fn over a list of arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = fn()
            flat[i] = orig - step
            lo = fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def check_gradients(build, arrays, tol=1e-6):
    """build() -> scalar Tensor from the given parameter arrays."""
    params = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(params)
    out.backward()
    analytic = [p.grad.copy() for p in params]

    def value():
        return float(build([ad.Tensor(a) for a in arrays]).data)

    numeric = finite_difference(value, arrays)
    for got, want in zip(analytic, numeric):
        assert rel_err(got, want) < tol


rng = np.random.default_rng(7)


def test_add_mul_broadcast_gradients():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))

    def build(ps):
        return ad.tsum(ad.mul(ad.add(ps[0], ps[1]), ps[0]))

    check_gradients(build, [a, b])


@pytest.mark.parametrize("a_shape,b_shape", [
    ((3, 4), (4, 5)),      # plain 2-D product
    ((1, 6), (6, 2)),      # (1,k) @ (k,n): one MLP layer
    ((4, 3), (2, 3, 5)),   # (i,h) @ (l,h,k): the parser's bilinear term
    ((2, 4, 5), (5, 3)),   # (l,i,k) @ (k,j): its pair scores
    ((1, 4), (3, 4, 2)),   # a single row against a stack
])
def test_matmul_broadcast_gradients(a_shape, b_shape):
    a = rng.normal(size=a_shape)
    b = rng.normal(size=b_shape)
    weights = rng.normal(size=np.matmul(a, b).shape)

    def build(ps):
        return ad.tsum(ad.mul(ad.matmul(ps[0], ps[1]), weights))

    check_gradients(build, [a, b])


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ad.matmul(np.ones(3), np.ones((3, 2)))
    with pytest.raises(ValueError):
        ad.matmul(np.ones((4, 1)), np.ones((4, 5)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("a_shape,b_shape", [
    ((1, 7), (7, 5)),      # a batch of one: each weight gradient
    ((6, 1), (1, 5)),      # a contraction of length 1 going forward
    ((2, 6, 1), (1, 5)),   # with batch dimensions
    ((6, 1), (3, 1, 5)),
])
def test_contractions_of_length_one_match_np_matmul_bytes(dtype, a_shape,
                                                          b_shape):
    # zeros against negatives make the -0.0 that np.matmul never gives
    a = np.round(rng.normal(size=a_shape)).astype(dtype)
    b = np.round(rng.normal(size=b_shape)).astype(dtype)
    a.flat[::3] = 0
    b.flat[::2] = -1
    weights = np.round(rng.normal(size=np.matmul(a, b).shape)).astype(dtype)
    weights.flat[::4] = 0
    ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, True)
    out = ad.matmul(ta, tb)
    ad.tsum(ad.mul(out, weights)).backward()
    swap = lambda x: np.swapaxes(x, -1, -2)  # noqa: E731
    for got, want, shape in (
            (out.data, np.matmul(a, b), None),
            (ta.grad, np.matmul(weights, swap(b)), a_shape),
            (tb.grad, np.matmul(swap(a), weights), b_shape)):
        if shape is not None:
            want = ad._unbroadcast(want, shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_relu_log_softmax_gradients():
    x = rng.normal(size=(5, 3))
    target = np.zeros((5, 3))
    target[np.arange(5), rng.integers(0, 3, 5)] = 1.0

    def build(ps):
        probs = ad.log_softmax(ad.relu(ps[0]), axis=-1)
        return ad.mul(ad.tsum(ad.mul(probs, target)), -1.0)

    # relu kinks: keep values away from zero
    x = np.where(np.abs(x) < 0.1, 0.5, x)
    check_gradients(build, [x])


def test_reshape_concat_getitem_transpose_gradients():
    a = rng.normal(size=(2, 6))
    b = rng.normal(size=(3, 4))

    def build(ps):
        left = ad.reshape(ps[0], (3, 4))
        both = ad.concat([left, ps[1]], axis=0)
        part = ad.getitem(both, slice(1, 5))
        return ad.tsum(ad.mul(ad.transpose(part, (1, 0)), 2.0))

    check_gradients(build, [a, b])


def test_getitem_with_repeated_indices_adds_every_copy():
    p = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ad.tsum(ad.mul(ad.getitem(p, np.array([0, 0, 2])), 2.0)).backward()
    assert p.grad.tolist() == [4.0, 0.0, 2.0]


def test_first_gradient_contributions_do_not_alias():
    # add hands views of one upstream gradient to both operands; a or b
    # keeping such a view as its grad would leak a's second contribution
    a = ad.Tensor(np.ones(3), requires_grad=True)
    b = ad.Tensor(np.ones(3), requires_grad=True)
    ad.tsum(ad.add(ad.add(a, b), a)).backward()
    assert a.grad.tolist() == [2.0, 2.0, 2.0]
    assert b.grad.tolist() == [1.0, 1.0, 1.0]


def test_backward_holds_no_copy_of_a_weight_beyond_its_gradient():
    x = ad.Tensor(rng.normal(size=(4, 256)))
    w = ad.Tensor(rng.normal(size=(256, 512)), requires_grad=True)
    loss = ad.tsum(ad.matmul(x, w))
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gradient itself; a zero fill plus the product would be twice that
    assert peak < 1.5 * w.data.nbytes
    assert np.allclose(w.grad, x.data.sum(axis=0)[:, None])


def test_mean_and_sum_axis_gradients():
    a = rng.normal(size=(4, 3))
    w_rows = rng.normal(size=(4, 1))
    w_cols = rng.normal(size=(3,))

    def build(ps):
        rows = ad.tsum(ps[0], axis=1, keepdims=True)
        cols = ad.tsum(ps[0], axis=0)
        return ad.tsum(ad.mul(rows, w_rows)) + ad.tsum(ad.mul(cols, w_cols))

    check_gradients(build, [a])


def test_softmax_rows_sum_to_one():
    x = rng.normal(size=(6, 9)) * 10
    s = ad.softmax(x, axis=-1)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s >= 0).all()


def test_backward_accumulates_across_graphs():
    p = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    ad.tsum(ad.mul(p, p)).backward()
    first = p.grad.copy()
    ad.tsum(ad.mul(p, p)).backward()
    assert np.allclose(p.grad, 2 * first)


def test_shared_subexpression_gradient():
    # y = x*x + x: dy/dx = 2x + 1
    p = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.add(ad.mul(p, p), p)
    y.backward()
    assert np.allclose(p.grad, [7.0])


def _recursive_backward(out):
    """The recursive post-order traversal, as a reference for the order."""
    topo, seen = [], set()

    def visit(t):
        if id(t) in seen or not t.requires_grad:
            return
        seen.add(id(t))
        for p in t._parents:
            visit(p)
        topo.append(t)

    visit(out)
    for t in topo:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
    out.grad = out.grad + np.ones_like(out.data)
    for t in reversed(topo):
        if t._backward is not None:
            t._backward(t.grad)


def test_backward_order_matches_the_recursive_traversal():
    # shared subexpressions reached along paths of different lengths, so
    # the summation order of their gradients shows in the last bits
    def build(x, w):
        h = ad.relu(ad.matmul(x, w))
        s = ad.add(ad.mul(h, h), ad.exp(ad.mul(h, 0.1)))
        z = ad.add(ad.log_softmax(ad.add(s, h)), ad.mul(ad.transpose(
            ad.matmul(ad.transpose(x, (1, 0)), h), (1, 0)), 0.3)[:, :4])
        return ad.tsum(ad.add(ad.mul(z, s), h))

    x0, w0 = rng.normal(size=(4, 5)), rng.normal(size=(5, 4))
    grads = []
    for backward in (ad.Tensor.backward, _recursive_backward):
        x = ad.Tensor(x0, requires_grad=True)
        w = ad.Tensor(w0, requires_grad=True)
        backward(build(x, w))
        grads.append((x.grad.tobytes(), w.grad.tobytes()))
    assert grads[0] == grads[1]


def test_backward_leaves_no_cyclic_garbage():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        p = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ad.tsum(ad.mul(ad.add(p, 1.0), p))
        y.backward()
        del y
        # the tape was freed by reference counting alone
        assert gc.collect() == 0
        assert np.allclose(p.grad, [3.0, 5.0])
    finally:
        if enabled:
            gc.enable()


def test_backward_through_a_long_chain():
    p = ad.Tensor(np.array([0.5]), requires_grad=True)
    y = p
    for _ in range(5000):
        y = ad.add(y, 1.0)
    y.backward()
    assert p.grad.tolist() == [1.0]


def test_adamw_zero_lr_is_identity():
    p = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    before = p.data.copy()
    opt = ad.AdamW([p], lr=0.0)
    ad.tsum(ad.mul(p, p)).backward()
    opt.step()
    assert p.data.tobytes() == before.tobytes()


def test_adamw_decreases_quadratic():
    p = ad.Tensor(np.array([5.0, -4.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = ad.tsum(ad.mul(p, p))
        loss.backward()
        opt.step()
    assert np.abs(p.data).max() < 0.5


def test_adamw_weight_decay_shrinks_parameters():
    p = ad.Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=0.01, weight_decay=0.5)
    p.grad = np.zeros(1)
    opt.step()
    assert p.data[0] < 1.0


def test_backward_requires_scalar_without_grad_argument():
    t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(t, 2.0).backward()


def test_adamw_matches_the_straight_line_formula():
    # weight decay 0 skips its two passes, and must still match
    for weight_decay in (0.3, 0.0):
        _adamw_matches_the_straight_line_formula(weight_decay)


def _adamw_matches_the_straight_line_formula(weight_decay,
                                             dtype=np.float64):
    def reference_step(params, m, v, t, lr, b1, b2, wd, eps=1e-8):
        for i, p in enumerate(params):
            if p.grad is None:
                continue
            m[i] = b1 * m[i] + (1 - b1) * p.grad
            v[i] = b2 * v[i] + (1 - b2) * p.grad * p.grad
            mhat = m[i] / (1 - b1 ** t)
            vhat = v[i] / (1 - b2 ** t)
            p.data -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p.data)

    # one parameter spans several scratch blocks, one is not contiguous,
    # one never gets a gradient
    arrays = [a.astype(dtype) for a in (
        rng.normal(size=(3, ad.AdamW.BLOCK // 2 + 5)),
        rng.normal(size=(4, 6)), rng.normal(size=(5,)), np.array(0.7))]
    ours = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    ours[1].data = np.asfortranarray(arrays[1])
    ref = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    opt = ad.AdamW(ours, lr=0.05, betas=(0.8, 0.99),
                   weight_decay=weight_decay)
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t in range(1, 5):
        for mine, theirs in zip(ours, ref):
            grad = rng.normal(size=mine.data.shape).astype(dtype)
            mine.grad = None if mine is ours[2] else grad
            theirs.grad = None if mine is ours[2] else grad.copy()
        opt.step()
        reference_step(ref, m, v, t, lr=0.05, b1=0.8, b2=0.99,
                       wd=weight_decay)
    for mine, theirs in zip(ours, ref):
        assert mine.data.dtype == dtype
        assert mine.data.tobytes() == theirs.data.tobytes()
    assert ours[2].data.tobytes() == arrays[2].tobytes()
    assert {a.dtype for pair in opt._moments.values() for a in pair} \
        | {opt._scratch.dtype} == {np.dtype(dtype)}


def _scripted_stopping(scores, patience, epochs=None):
    """Runs the early-stopping loop with epoch e setting the parameter to e;
    returns (epochs run, restored value)."""
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    stopper = ad.EarlyStopping([p], patience)
    ran = 0
    for epoch in range(1, (len(scores) if epochs is None else epochs) + 1):
        p.data = np.array([float(epoch)])
        ran = epoch
        if scores is not None and stopper.update(scores[epoch - 1]):
            break
    stopper.restore()
    return ran, float(p.data[0])


@pytest.mark.parametrize("scores, patience, ran, restored", [
    # improvement resets the count; two flat epochs in a row stop
    ([0.1, 0.3, 0.2, 0.4, 0.4, 0.1, 0.9], 2, 6, 4.0),
    # patience 1 stops at the first epoch that does not improve
    ([0.5, 0.6, 0.6, 0.9], 1, 3, 2.0),
    # a tie is not an improvement: the earlier epoch is kept
    ([0.2, 0.2, 0.1], 3, 3, 1.0),
    # never stopped: the best epoch comes back, not the last
    ([0.0, 0.7, 0.1, 0.2], 5, 4, 2.0),
    # a zero score still beats "no score yet"
    ([0.0, 0.0], 1, 2, 1.0),
])
def test_early_stopping_stops_and_restores_the_best_epoch(
        scores, patience, ran, restored):
    assert _scripted_stopping(scores, patience) == (ran, restored)


def test_early_stopping_without_scores_keeps_the_final_parameters():
    assert _scripted_stopping(None, 1, epochs=4) == (4, 4.0)


def test_early_stopping_with_no_epochs_keeps_the_initial_parameters():
    assert _scripted_stopping([], 1) == (0, 0.0)


def test_early_stopping_snapshot_is_a_copy():
    p = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    stopper = ad.EarlyStopping([p], patience=1)
    stopper.update(0.5)
    p.data += 10.0  # an in-place update, as AdamW.step makes
    stopper.update(0.1)
    stopper.restore()
    assert p.data.tolist() == [1.0, 2.0]


def test_early_stopping_takes_no_snapshot_when_the_final_epoch_is_best():
    p = ad.Tensor(np.arange(4096.0), requires_grad=True)
    stopper = ad.EarlyStopping([p], patience=2)
    stopper.update(0.1)
    assert stopper.best is not None
    data = p.data
    data += 1.0
    tracemalloc.start()
    try:
        assert not stopper.update(0.5, final=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.nbytes
    assert stopper.best is None
    stopper.restore()
    assert p.data is data
    assert p.data[:3].tolist() == [1.0, 2.0, 3.0]


# float32: the ops the parser uses keep the dtype, constants included, and
# agree with the float64 gradients checked above to float32 precision
_f32_rng = np.random.default_rng(11)
_F32_WEIGHTS = _f32_rng.normal(size=(2, 4, 3))
_F32_CASES = {
    "add-mul": (lambda ps: ad.tsum(ad.mul(ad.add(ps[0], ps[1]), ps[0])),
                [(3, 4), (4,)]),
    "matmul": (lambda ps: ad.tsum(ad.mul(ad.matmul(ps[0], ps[1]),
                                         _F32_WEIGHTS)), [(4, 5), (2, 5, 3)]),
    "relu-log-softmax": (lambda ps: ad.mul(ad.tsum(ad.mul(ad.log_softmax(
        ad.relu(ps[0]), axis=-1), _F32_WEIGHTS)), -1.0), [(2, 4, 3)]),
    "softmax-tensor": (lambda ps: ad.tsum(ad.mul(
        ad.softmax_tensor(ps[0]), _F32_WEIGHTS)), [(2, 4, 3)]),
    "shape-ops": (lambda ps: ad.tsum(ad.mul(ad.transpose(ad.getitem(
        ad.concat([ad.reshape(ps[0], (3, 4)), ps[1]], axis=0),
        slice(1, 5)), (1, 0)), 2.0)), [(2, 6), (3, 4)]),
    "repeated-getitem": (lambda ps: ad.tsum(ad.mul(ad.getitem(
        ps[0], np.array([0, 0, 2])), np.array([1.5, -2.0, 0.5]))), [(3,)]),
    "axis-sum": (lambda ps: ad.tsum(ad.mul(ad.tsum(ps[0], axis=1),
                                           np.arange(4.0))), [(4, 3)]),
}


@pytest.mark.parametrize("name", sorted(_F32_CASES))
def test_float32_ops_keep_float32_and_match_float64(name):
    build, shapes = _F32_CASES[name]
    arrays = [_f32_rng.normal(size=shape) for shape in shapes]
    arrays = [np.where(np.abs(a) < 0.1, 0.5, a) for a in arrays]  # relu kink

    def run(dtype):
        params = [ad.Tensor(a.astype(dtype), requires_grad=True)
                  for a in arrays]
        out = build(params)
        out.backward(np.array(0.5))  # a float64 seed, as train_epoch's
        return out, params

    out32, params32 = run(np.float32)
    out64, params64 = run(np.float64)
    assert out32.data.dtype == np.float32
    assert abs(float(out32.data) - float(out64.data)) \
        <= 1e-6 * max(abs(float(out64.data)), 1.0)
    for p32, p64 in zip(params32, params64):
        assert p32.grad.dtype == np.float32
        assert rel_err(p32.grad, p64.grad) < 1e-6


def test_tensor_keeps_float_dtypes_and_turns_the_rest_into_float64():
    assert ad.Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert ad.Tensor(np.ones(2)).data.dtype == np.float64
    assert ad.Tensor(np.arange(2)).data.dtype == np.float64
    assert ad.Tensor(np.ones(2, bool)).data.dtype == np.float64
    assert ad.Tensor(0.5).data.dtype == np.float64
    # a constant takes the dtype of the tensor it meets, on either side
    p = ad.Tensor(np.ones(2, np.float32), requires_grad=True)
    for out in (ad.add(p, np.array(1.0)), ad.mul(np.array(2.0), p),
                p + 1.0, ad.matmul(ad.reshape(p, (1, 2)), np.ones((2, 2)))):
        assert out.data.dtype == np.float32


def test_adamw_matches_the_straight_line_formula_in_float32():
    for weight_decay in (0.3, 0.0):
        _adamw_matches_the_straight_line_formula(weight_decay, np.float32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 50_001), (70_000,), (4, 0), ()])
def test_draw_normal_equals_a_cast_of_one_whole_draw(dtype, shape):
    chunked, whole = np.random.default_rng(4), np.random.default_rng(4)
    got = ad.draw_normal(chunked, 0.5, shape, dtype)
    want = whole.normal(0.0, 0.5, shape).astype(dtype)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()
    # both streams stand at the same place afterwards
    assert chunked.normal() == whole.normal()
