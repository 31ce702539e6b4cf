import tracemalloc

import numpy as np
import pytest

from conjprop import svm
from conjprop.svm import SVMModel, TrainingError, poly2_kernel, train_svm

# classic XOR with +/-1 coordinates; the quadratic kernel separates it
XOR_X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
XOR_Y = np.array([-1.0, 1.0, 1.0, -1.0])


def kkt_violation(x, y, alpha, cap, tol=1e-12):
    """Independent check: maximal violating pair gap of a dual solution."""
    q = poly2_kernel(x, x) * np.outer(y, y)
    grad = q @ alpha - 1.0
    neg_yg = -y * grad
    up = ((y > 0) & (alpha < cap - tol)) | ((y < 0) & (alpha > tol))
    low = ((y < 0) & (alpha < cap - tol)) | ((y > 0) & (alpha > tol))
    if not up.any() or not low.any():
        return 0.0
    return neg_yg[up].max() - neg_yg[low].min()


def recover_alpha(model, x, y):
    alpha = np.zeros(len(x))
    for sv, coef in zip(model.support_vectors, model.dual_coef):
        for i in range(len(x)):
            if np.array_equal(x[i], sv) and alpha[i] == 0.0:
                alpha[i] = coef * y[i]
                break
    return alpha


def test_xor_is_solved_exactly():
    model = train_svm(XOR_X, XOR_Y, c=1.0)
    decision = model.decision_function(XOR_X)
    assert ((decision >= 0) == (XOR_Y > 0)).all()
    # the symmetric analytic optimum: every alpha = 1/8, offset 0
    alpha = recover_alpha(model, XOR_X, XOR_Y)
    assert np.allclose(alpha, 0.125, atol=1e-3)
    assert abs(model.bias) < 5e-3
    assert np.allclose(np.abs(decision), 1.0, atol=1e-2)


def test_solution_satisfies_kkt_on_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(6, 20))
        x = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[1]
        c = float(rng.choice([0.5, 1.0, 10.0]))
        model = train_svm(x, y, c=c)
        alpha = recover_alpha(model, x, y)
        cap = np.full(n, c)
        assert (alpha >= -1e-9).all() and (alpha <= cap + 1e-9).all()
        assert abs(np.dot(alpha, y)) < 1e-9
        assert kkt_violation(x, y, alpha, cap) <= 1e-3 + 1e-9


def test_decision_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    model = train_svm(x, y)
    probe = rng.normal(size=(50, 4))
    got = model.decision_function(probe)
    direct = np.array([
        sum(coef * (np.dot(sv, p) + 1.0) ** 2
            for sv, coef in zip(model.support_vectors, model.dual_coef))
        + model.bias
        for p in probe])
    assert np.abs(got - direct).max() < 1e-9


def test_linearly_separable_data_is_fit_perfectly():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(2.0, 0.3, size=(25, 2)),
                        rng.normal(-2.0, 0.3, size=(25, 2))])
    y = np.concatenate([np.ones(25), -np.ones(25)])
    model = train_svm(x, y)
    assert (model.predict(x) == (y > 0)).all()


def test_boolean_labels_accepted():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([False, False, True, True])
    model = train_svm(x, y)
    assert (model.predict(x) == y).all()


def test_single_class_data_raises():
    x = np.ones((5, 2))
    with pytest.raises(TrainingError):
        train_svm(x, np.ones(5))
    with pytest.raises(TrainingError):
        train_svm(np.zeros((0, 2)), np.zeros(0))


def test_class_weights_shift_the_boundary():
    # one positive among many negatives at the same margin distance
    x = np.array([[1.0], [-1.0], [-1.2], [-0.8], [-1.1]])
    y = np.array([1.0, -1.0, -1.0, -1.0, -1.0])
    plain = train_svm(x, y, c=0.1)
    weighted = train_svm(x, y, c=np.where(y > 0, 1.0, 0.1))
    probe = np.array([[0.3]])
    assert weighted.decision_function(probe) > plain.decision_function(probe)


def test_contradictory_duplicates_cap_accuracy():
    x = np.repeat([[1.0, 0.0]], 4, axis=0)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    x = np.concatenate([x, [[5.0, 5.0], [-5.0, -5.0]]])
    y = np.concatenate([y, [1.0, -1.0]])
    model = train_svm(x, y)
    front = model.predict(x[:4]) == (y[:4] > 0)
    assert front.sum() <= 2


def test_first_step_between_opposite_labels_uses_the_textbook_curvature():
    # K = [[4, 1], [1, 4]]: along d the curvature is 4 + 4 - 2 = 6, and the
    # first step from alpha = 0 (gap 2) lands on the optimum alpha = 2/6
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = train_svm(x, np.array([1.0, -1.0]), c=100.0)
    eta = 6.0
    assert model.iterations == 1
    assert model.dual_coef.tolist() == [2.0 / eta, -2.0 / eta]


def test_tiny_caps_keep_their_support_vectors():
    # every alpha ends exactly on its cap of 1e-300; compared with the exact
    # bounds, none of them is taken for zero and dropped
    model = train_svm(XOR_X, XOR_Y, c=1e-300)
    assert model.dual_coef.tolist() == (1e-300 * XOR_Y).tolist()
    assert ((model.decision_function(XOR_X) > 0) == (XOR_Y > 0)).all()


def reference_svm(x, y, cap, tol=1e-3):
    """The solver in its textbook form, holding Q = K * outer(y, y)."""
    n = len(y)
    q = poly2_kernel(x, x) * np.outer(y, y)
    alpha, grad = np.zeros(n), -np.ones(n)
    while True:
        neg_yg = -y * grad
        up = ((y > 0) & (alpha < cap)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < cap)) | ((y > 0) & (alpha > 0))
        i = int(np.flatnonzero(up)[np.argmax(neg_yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(neg_yg[low])])
        gap = neg_yg[i] - neg_yg[j]
        if gap <= tol:
            break
        # minimize along d (d_i = y_i, d_j = -y_j): slope -gap, curvature d'Qd
        curvature = q[i, i] + q[j, j] - 2.0 * y[i] * y[j] * q[i, j]
        room_i = cap[i] - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else cap[j] - alpha[j]
        step = min(gap / max(curvature, 1e-12), room_i, room_j)
        old_ai, old_aj = alpha[i], alpha[j]
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        if step == room_i:
            alpha[i] = cap[i] if y[i] > 0 else 0.0
        if step == room_j:
            alpha[j] = 0.0 if y[j] > 0 else cap[j]
        grad += q[:, i] * (alpha[i] - old_ai) + q[:, j] * (alpha[j] - old_aj)
    keep = alpha > 1e-12
    return x[keep], (alpha * y)[keep], svm._intercept(alpha, grad, y, cap)


@pytest.mark.parametrize("binary", [False, True], ids=["dense", "binary"])
def test_kernel_of_x_with_itself_equals_its_transpose(binary):
    # train_svm reads kernel rows where the textbook form reads columns
    rng = np.random.default_rng(5)
    x = rng.normal(size=(700, 153))
    if binary:
        x = (x > 0.8).astype(np.float64)
    k = poly2_kernel(x, x)
    assert np.array_equal(k, k.T)


@pytest.mark.parametrize("weighted", [False, True], ids=["scalar", "caps"])
def test_solver_matches_the_textbook_form_bit_for_bit(weighted):
    rng = np.random.default_rng(17)
    x = 0.3 * rng.normal(size=(300, 6))
    y = np.where(x[:, 0] * x[:, 1] + 0.03 * rng.normal(size=300) > 0,
                 1.0, -1.0)
    c = np.where(y > 0, 2.5, 0.4) if weighted else 0.7
    model = train_svm(x, y, c=c)
    want = reference_svm(x, y, np.broadcast_to(c, (300,)))
    assert model.support_vectors.tobytes() == want[0].tobytes()
    assert model.dual_coef.tobytes() == want[1].tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(want[2]).tobytes()
    assert model.gap <= 1e-3 and model.iterations > 0


def test_solver_holds_one_n_by_n_matrix():
    # separable data, so that the solver's steps stay few under tracemalloc
    rng = np.random.default_rng(2)
    n = 1500
    x = 0.3 * rng.normal(size=(n, 4))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    x[:, 0] += y
    tracemalloc.start()
    try:
        train_svm(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8, peak / (n * n * 8)

