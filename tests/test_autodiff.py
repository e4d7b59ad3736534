import inspect
from pathlib import Path

import numpy as np
import pytest

from voxtag import autodiff as ad
from voxtag.errors import (EmptyList, MalformedHeader, NonFinite, NonScalarLoss, OutOfRangeStep,
                           ShapeMismatch)


def numeric_grad(f, x, eps=1e-4):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f(x)
        x[idx] = orig - eps
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def check_grad(build, x0):
    """Compare reverse-mode grad against finite differences on x0."""
    x = ad.Tensor(x0.copy(), requires_grad=True)
    loss = build(x)
    ad.backward(loss)
    num = numeric_grad(lambda v: ad.np.asarray(build(ad.Tensor(v)).values).item(), x0.copy())
    denom = np.maximum(np.abs(num), 1e-8)
    assert np.max(np.abs(x.grad - num) / denom) < 1e-4


@pytest.mark.parametrize("builder", [
    lambda x: ad.sum_(ad.mul(x, x)),
    lambda x: ad.sum_(ad.relu(x)),
    lambda x: ad.sum_(ad.tanh(x)),
    lambda x: ad.mean(ad.mul(x, ad.Tensor(np.arange(12.0).reshape(3, 4)))),
    lambda x: ad.sum_(ad.mul(ad.softmax(x, axis=-1), ad.Tensor(np.arange(12.0).reshape(3, 4)))),
    lambda x: ad.sum_(ad.log(ad.add(ad.softmax(x, axis=-1), 1e-9))),
    # soft targets with an all-zero row and a row summing to 0.3
    lambda x: ad.cross_entropy(x, np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0],
                                            [0.0, 0.3, 0.0, 0.0]])),
])
def test_elementwise_gradients_match_finite_differences(builder):
    rng = np.random.default_rng(0)
    check_grad(builder, rng.normal(size=(3, 4)))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    b0 = rng.normal(size=(4, 5))
    check_grad(lambda x: ad.sum_(ad.tanh(ad.matmul(x, ad.Tensor(b0)))),
               rng.normal(size=(3, 4)))
    a0 = rng.normal(size=(3, 4))
    check_grad(lambda x: ad.sum_(ad.tanh(ad.matmul(ad.Tensor(a0), x))),
               b0.copy())


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    x0, w0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
    check_grad(lambda x: ad.sum_(ad.tanh(ad.linear(x, ad.Tensor(w0), ad.Tensor(b0)))), x0.copy())
    check_grad(lambda w: ad.sum_(ad.tanh(ad.linear(ad.Tensor(x0), w, ad.Tensor(b0)))), w0.copy())
    check_grad(lambda b: ad.sum_(ad.tanh(ad.linear(ad.Tensor(x0), ad.Tensor(w0), b))), b0.copy())


@pytest.mark.parametrize("constant", [None, "x", "b"])
def test_linear_is_bitwise_add_of_matmul(constant):
    """One linear node gives the value and the gradients of add(matmul(x, w),
    b) bit for bit; a constant operand gets no gradient from either."""
    rng = np.random.default_rng(13)
    arrays = {"x": rng.normal(size=(7, 6)), "w": rng.normal(size=(6, 5)), "b": rng.normal(size=(5,))}
    g = rng.normal(size=(7, 5))

    def run(op):
        t = {k: ad.Tensor(v, requires_grad=k != constant) for k, v in arrays.items()}
        out = op(t["x"], t["w"], t["b"])
        ad.backward(ad.sum_(ad.mul(out, g)))
        return out.values, {k: v.grad for k, v in t.items()}

    fused, fused_grads = run(ad.linear)
    composed, composed_grads = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
    assert fused.tobytes() == composed.tobytes()
    for name in arrays:
        if name == constant:
            assert fused_grads[name] is None and composed_grads[name] is None
        else:
            assert fused_grads[name].tobytes() == composed_grads[name].tobytes(), name

    x, w, b = (ad.Tensor(arrays[k], requires_grad=k != constant) for k in "xwb")
    parts = ad.linear(x, w, b)._backward(g)
    assert [p is None for p in parts] == [k == constant for k in "xwb"]


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((3, 4), (5, 2), (2,)),
    ((3, 4), (4, 2), (3,)),
])
def test_linear_rejects_width_mismatch(x_shape, w_shape, b_shape):
    with pytest.raises(ShapeMismatch):
        ad.linear(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))


# signed zeros, subnormals, normals and infinities of both signs
RELU_EDGES = np.array([-0.0, 0.0, 5e-324, -5e-324, 3e-310, -3e-310, 2.2250738585072014e-308,
                       -2.2250738585072014e-308, 1.5, -1.5, 1e308, -1e308, np.inf, -np.inf])


@pytest.mark.parametrize("layout", ["edges", "odd", "block", "transposed"])
def test_relu_value_is_bitwise_where(layout):
    """relu(x) is np.where(x > 0, x, 0.0) bit for bit: -0.0 comes out as
    +0.0, and subnormals pass or vanish by sign, in contiguous arrays of
    every length and in strided views."""
    rng = np.random.default_rng(14)
    x = {"edges": RELU_EDGES,
         "odd": np.resize(RELU_EDGES, 37) * rng.choice([1.0, -1.0], 37),
         "block": rng.normal(size=(1070, 64)),
         "transposed": rng.normal(size=(64, 33)).T}[layout]
    if layout in ("block", "transposed"):
        x[::5, ::3] = -0.0
        x[1::7, 2::5] = 0.0
        x[2::11, ::7] = rng.choice([5e-324, -5e-324, 3e-310, -3e-310], x[2::11, ::7].shape)
    out = ad.relu(x).values
    assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert not np.signbit(out).any()


def test_relu_gradient_is_the_masked_upstream_gradient():
    rng = np.random.default_rng(15)
    x0 = np.resize(RELU_EDGES, (6, 7)) * rng.choice([1.0, -1.0], (6, 7))
    x0[:, ::2] = rng.normal(size=(6, 4))
    g = rng.normal(size=(6, 7))
    x = ad.Tensor(x0, requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.relu(x), g)))
    assert x.grad.tobytes() == (g * (x0 > 0)).tobytes()


def test_relu_passes_nan_through():
    """A NaN input comes out as NaN (np.maximum), where np.where(x > 0, x,
    0.0) would turn it into 0.0; its gradient is still masked to 0.0."""
    x = ad.Tensor(np.array([np.nan, 1.0, -1.0]), requires_grad=True)
    y = ad.relu(x)
    assert np.isnan(y.values[0]) and y.values[1:].tolist() == [1.0, 0.0]
    ad.backward(ad.sum_(ad.mul(y, np.array([0.0, 1.0, 1.0]))))
    assert x.grad.tolist() == [0.0, 1.0, 0.0]


def _small_graph(x, w, b):
    return ad.sum_(ad.mul(ad.relu(ad.linear(x, w, b)), ad.tanh(ad.linear(x, w, b))))


def _records(t):
    """Whether t is a taped node: it records parents and a backward rule."""
    return bool(t._parents) and t._backward is not None


def test_no_grad_records_no_parents():
    """Inside no_grad every op's output is a bare value: no parents, no
    backward rule, no gradient flag. backward over it reaches no parameter."""
    rng = np.random.default_rng(16)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=3), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(5, 4)))
    with ad.no_grad():
        h = ad.linear(x, w, b)
        outs = [h, ad.relu(h), ad.add(h, b), ad.matmul(x, w), ad.concat([h, h], axis=1),
                ad.attention(h, h, [2, 3], [4, 1], 0.5), ad.cross_entropy(h, np.ones(h.shape)),
                ad.embedding(w, [0, 3]), ad.grl_apply(h, 0.5), _small_graph(x, w, b)]
    for out in outs:
        assert out._parents == () and out._backward is None and not out.requires_grad
    loss = outs[-1]
    taped = _small_graph(x, w, b)
    assert loss.values.tobytes() == taped.values.tobytes()
    ad.backward(loss)
    assert w.grad is None and b.grad is None
    ad.backward(taped)
    assert w.grad is not None and b.grad is not None


def test_no_grad_restores_recording_on_exit_error_and_nesting():
    w = ad.Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        assert not _records(ad.add(w, w))
    assert _records(ad.add(w, w))
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("inside")
    assert _records(ad.add(w, w))
    with ad.no_grad():
        with ad.no_grad():
            assert not _records(ad.add(w, w))
        assert not _records(ad.add(w, w))
        with pytest.raises(ValueError):
            with ad.no_grad():
                raise ValueError("nested")
        assert not _records(ad.add(w, w))
    assert _records(ad.add(w, w))


def test_leaf_made_under_no_grad_keeps_its_gradient():
    with ad.no_grad():
        p = ad.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    assert p.requires_grad
    ad.backward(ad.sum_(ad.mul(p, p)))
    assert p.grad.tolist() == [3.0, -4.0]


Q_LENGTHS, KV_LENGTHS = [3, 7, 1, 5, 9, 2, 6, 4], [5, 2, 8, 1, 6, 9, 3, 7]


def _block_mask(rows, cols):
    """Additive mask of the dense reference: 0 where block u's rows meet its
    own columns, -1e30 elsewhere."""
    r = np.repeat(np.arange(len(rows)), rows)
    c = np.repeat(np.arange(len(cols)), cols)
    return np.where(r[:, None] == c[None, :], 0.0, -1e30)


def _dense_attention(q, kv, q_lengths, kv_lengths, scale):
    """Reference attention: the dense graph over every (row, column) pair with
    cross-block scores masked, as the model's decoder once built it."""
    scores = ad.mul(ad.matmul(q, ad.transpose(kv)), scale)
    if len(q_lengths) > 1:
        scores = ad.add(scores, ad.Tensor(_block_mask(q_lengths, kv_lengths)))
    return ad.matmul(ad.softmax(scores, axis=-1), kv)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("wrt", ["q", "kv"])
def test_attention_gradients_match_finite_differences(B, wrt):
    rng = np.random.default_rng(14 + B)
    q_len, kv_len = Q_LENGTHS[:B], KV_LENGTHS[:B]
    arrays = {"q": rng.normal(size=(sum(q_len), 4)), "kv": rng.normal(size=(sum(kv_len), 4))}
    w = ad.Tensor(rng.normal(size=(sum(q_len), 4)))

    def build(x):
        operands = {k: x if k == wrt else ad.Tensor(v) for k, v in arrays.items()}
        return ad.sum_(ad.mul(ad.attention(operands["q"], operands["kv"], q_len, kv_len, 0.7), w))

    check_grad(build, arrays[wrt].copy())


@pytest.mark.parametrize("B", [1, 3, 8])
def test_attention_matches_dense_masked_graph(B):
    """One attention node gives the value and both gradients of the dense
    masked graph to rtol 1e-12: they differ only in sums that skip the
    other blocks' zeros. A constant operand gets no gradient."""
    rng = np.random.default_rng(15)
    q_len, kv_len = Q_LENGTHS[:B], KV_LENGTHS[:B]
    q0, kv0 = rng.normal(size=(sum(q_len), 16)), rng.normal(size=(sum(kv_len), 16))
    g = rng.normal(size=(sum(q_len), 16))

    def run(op):
        q, kv = ad.Tensor(q0, requires_grad=True), ad.Tensor(kv0, requires_grad=True)
        out = op(q, kv, q_len, kv_len, 0.25)
        ad.backward(ad.sum_(ad.mul(out, g)))
        return out.values, q.grad, kv.grad

    for fused, dense in zip(run(ad.attention), run(_dense_attention)):
        np.testing.assert_allclose(fused, dense, rtol=1e-12, atol=0)

    for constant in ("q", "kv"):
        q = ad.Tensor(q0, requires_grad=constant != "q")
        kv = ad.Tensor(kv0, requires_grad=constant != "kv")
        parts = ad.attention(q, kv, q_len, kv_len, 0.25)._backward(g)
        assert [p is None for p in parts] == [constant == "q", constant == "kv"]


def test_attention_blocks_are_isolated():
    """Changing one block's kv rows leaves every other block's rows of the
    result bit for bit as they were."""
    rng = np.random.default_rng(16)
    q_len, kv_len = Q_LENGTHS[:4], KV_LENGTHS[:4]
    q, kv = rng.normal(size=(sum(q_len), 8)), rng.normal(size=(sum(kv_len), 8))
    before = ad.attention(q, kv, q_len, kv_len, 0.5).values
    q_start, kv_start = np.cumsum([0] + q_len), np.cumsum([0] + kv_len)
    for j in range(4):
        changed = kv.copy()
        changed[kv_start[j]:kv_start[j + 1]] = rng.normal(size=(kv_len[j], 8))
        after = ad.attention(q, changed, q_len, kv_len, 0.5).values
        for i in range(4):
            rows = slice(q_start[i], q_start[i + 1])
            same = after[rows].tobytes() == before[rows].tobytes()
            assert same == (i != j), (i, j)


@pytest.mark.parametrize("q_len, kv_len", [
    ([2, 1], [3, 0]),
    ([2, 1], [3]),
    ([2, 2], [3, 1]),
    ([], []),
])
def test_attention_rejects_blocks_that_do_not_fit(q_len, kv_len):
    with pytest.raises(ShapeMismatch):
        ad.attention(np.zeros((3, 4)), np.zeros((3, 4)), q_len, kv_len, 1.0)


@pytest.mark.parametrize("op", [ad.matmul, ad.add, ad.mul])
@pytest.mark.parametrize("const_first", [True, False])
def test_constant_operand_gets_no_gradient(op, const_first):
    rng = np.random.default_rng(6)
    c = ad.Tensor(rng.normal(size=(3, 3)))

    def operands(x):
        return (c, x) if const_first else (x, c)

    check_grad(lambda x: ad.sum_(ad.tanh(op(*operands(x)))), rng.normal(size=(3, 3)))
    x = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    out = op(*operands(x))
    assert out._backward(np.ones((3, 3)))[0 if const_first else 1] is None
    ad.backward(ad.sum_(ad.tanh(out)))
    assert c.grad is None and x.grad is not None


def test_non_finite_parameter_gradient_raises():
    x = ad.Tensor(np.array([0.0, 1.0]), requires_grad=True)
    with np.errstate(divide="ignore"):
        loss = ad.sum_(ad.log(x))
        with pytest.raises(NonFinite):
            ad.backward(loss)
    assert x.grad is None


def test_broadcast_add_gradient():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(3, 4))
    check_grad(lambda b: ad.sum_(ad.tanh(ad.add(ad.Tensor(a0), b))),
               rng.normal(size=(4,)))


def test_concat_gradient():
    rng = np.random.default_rng(3)
    b0 = rng.normal(size=(2, 4))
    check_grad(lambda x: ad.sum_(ad.tanh(ad.concat([x, ad.Tensor(b0)], axis=0))),
               rng.normal(size=(3, 4)))


def test_embedding_gradient_accumulates_repeated_ids():
    table = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ad.embedding(table, np.array([1, 1, 3]))
    ad.backward(ad.sum_(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def _embedding_grad_add_at(shape, ids, g):
    """Reference embedding backward: rows scattered with np.add.at."""
    gt = np.zeros(shape)
    np.add.at(gt, ids, g)
    return gt


@pytest.mark.parametrize("ids", [
    [1, 1, 3],
    [4, 0, 4, 2, 0, 4, 4, 1],
    [3, 2, 1, 0, 2, 3, 3, 0, 2],
    list(np.random.default_rng(31).integers(0, 5, size=200)),
])
def test_embedding_backward_matches_add_at_bitwise(ids):
    """Repeated ids, ids in unsorted order, and row 5 that no id reads, with
    a random g whose magnitudes span 16 decades, so that summing a bin in any
    other order than the ids' would round differently."""
    rng = np.random.default_rng(len(ids))
    ids = np.array(ids)
    table = ad.Tensor(rng.normal(size=(6, 7)), requires_grad=True)
    g = rng.normal(size=(len(ids), 7)) * 10.0 ** rng.integers(-8, 8, size=(len(ids), 7))
    ad.backward(ad.sum_(ad.mul(ad.embedding(table, ids), g)))
    expected = _embedding_grad_add_at(table.shape, ids, g)
    assert table.grad.tobytes() == expected.tobytes()
    assert not expected[5].any()


def test_leaves_fed_by_one_add_get_separate_gradients():
    """Two same-shape leaves summed by one add both receive the add's upstream
    gradient g. A second backward without zero_grad gives each exactly 2g, and
    one leaf's accumulation never changes the other's grad."""
    rng = np.random.default_rng(22)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    g = rng.normal(size=(3, 4))

    def loss():
        return ad.sum_(ad.mul(ad.add(a, b), g))

    ad.backward(loss())
    assert np.array_equal(a.grad, g) and np.array_equal(b.grad, g)
    a.accumulate(g)
    assert np.array_equal(a.grad, 2 * g) and np.array_equal(b.grad, g)
    b.accumulate(g)
    assert np.array_equal(a.grad, 2 * g) and np.array_equal(b.grad, 2 * g)

    a.zero_grad()
    b.zero_grad()
    ad.backward(loss())
    ad.backward(loss())
    assert np.array_equal(a.grad, 2 * g) and np.array_equal(b.grad, 2 * g)


def test_mean_axis_gradient():
    rng = np.random.default_rng(4)
    check_grad(lambda x: ad.sum_(ad.tanh(ad.mean(x, axis=0))),
               rng.normal(size=(5, 3)))


def test_grl_forward_identity_backward_scaled_negation():
    x = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = ad.grl_apply(x, 0.7)
    assert np.array_equal(y.values, x.values)
    ad.backward(ad.sum_(ad.mul(y, np.array([2.0, 2.0, 2.0]))))
    assert np.allclose(x.grad, -0.7 * 2.0 * np.ones(3))


def test_grl_lambda_zero_blocks_gradient():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.sum_(ad.grl_apply(x, 0.0)))
    assert np.allclose(x.grad, 0.0)


def test_repeated_backward_accumulates():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(2):
        ad.backward(ad.sum_(ad.mul(x, x)))
    assert np.allclose(x.grad, 2 * 2 * x.values)
    x.zero_grad()
    assert x.grad is None


def test_shared_node_gradient_sums_paths():
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.mul(x, x)
    ad.backward(ad.sum_(ad.add(y, y)))
    assert np.allclose(x.grad, 2 * 2 * x.values)


def test_backward_rejects_non_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(NonScalarLoss):
        ad.backward(ad.mul(x, x))


def _backward_reference(loss):
    """The depth-first backward that the creation-order sweep replaced, kept
    as the reference: a post-order search builds a topological order of the
    nodes that need a gradient, then a second pass runs their rules in
    reverse."""
    if loss.values.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        if not node._parents:
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in seen:
                stack.append((p, False))
    grads = {loss: np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._backward is None or not node._parents:
            if not np.isfinite(g).all():
                raise NonFinite("non-finite gradient reached a leaf")
            node.accumulate(g)
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if not p.requires_grad:
                continue
            prev = grads.get(p)
            grads[p] = pg if prev is None else prev + pg


def _grl_update_graph():
    """The graph of one gradient-reversal training update: a batch of 8
    utterances of ragged lengths, translation and discriminator losses."""
    from types import SimpleNamespace

    from voxtag import model as M
    from voxtag import train as tr
    from voxtag.perturb import SpeakerGender

    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(12)]
    vocab = M.Vocabulary(words)
    model = M.TranslationModel(vocab, M.ModelConfig(), seed=3)
    batch = [SimpleNamespace(
        pooled=rng.normal(size=(int(rng.integers(2, 9)), 80)),
        target_tokens=list(rng.choice(words, size=int(rng.integers(1, 6)))),
        gender=SpeakerGender.F if i % 3 else SpeakerGender.M) for i in range(8)]
    enc, frames, t_loss = tr._translation_loss(model, batch, vocab)
    d_loss = M.weighted_disc_loss(model.discriminate(enc, 0.5, frames),
                                  [u.gender for u in batch], M.compute_class_weights(0.6, 0.4))
    return M.combined_loss(t_loss, d_loss, model.cfg), list(model.params.values())


def _probe_graph():
    """The post-hoc probe's graph over 40 utterances of 2 to 5 rows."""
    from voxtag import model as M

    rng = np.random.default_rng(32)
    frames = list(rng.integers(2, 6, size=40))
    X, P = ad.Tensor(rng.normal(size=(sum(frames), 64))), ad.Tensor(M.pooling_matrix(frames))
    params = [ad.Tensor(rng.normal(scale=0.125, size=(64, 32)), requires_grad=True),
              ad.Tensor(rng.normal(scale=0.1, size=32), requires_grad=True),
              ad.Tensor(rng.normal(scale=0.18, size=(32, 2)), requires_grad=True),
              ad.Tensor(rng.normal(scale=0.1, size=2), requires_grad=True)]
    hid = ad.relu(ad.linear(X, params[0], params[1]))
    logits = ad.matmul(P, ad.linear(hid, params[2], params[3]))
    q = np.zeros((40, 2))
    q[np.arange(40), rng.integers(0, 2, size=40)] = 1 / 40
    return ad.cross_entropy(logits, q), params


def _fan_in_graph():
    """An inner node that feeds four consumers and a leaf that feeds three,
    over small integers, so every gradient sum is exact."""
    rng = np.random.default_rng(33)
    x = ad.Tensor(rng.integers(-4, 5, size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.integers(-3, 4, size=(4, 4)), requires_grad=True)
    h = ad.matmul(x, w)
    uses = [ad.mul(h, 2.0), ad.add(h, x), ad.matmul(h, w), ad.mul(h, x)]
    total = uses[0]
    for u in uses[1:]:
        total = ad.add(total, u)
    return ad.sum_(ad.mul(total, rng.integers(-2, 3, size=(3, 4)))), [x, w]


def _graph_nodes(loss):
    """Every node reachable from loss, and each node's consumers."""
    nodes, consumers, stack = {loss}, {}, [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            consumers.setdefault(p, []).append(node)
            if p not in nodes:
                nodes.add(p)
                stack.append(p)
    return nodes, consumers


@pytest.mark.parametrize("graph", [_grl_update_graph, _probe_graph, _fan_in_graph])
def test_backward_matches_depth_first_reference_bitwise(graph):
    loss, leaves = graph()
    _backward_reference(loss)
    expected = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.zero_grad()
    ad.backward(loss)
    for leaf, want in zip(leaves, expected):
        assert leaf.grad.dtype == want.dtype and leaf.grad.tobytes() == want.tobytes()


def test_fan_in_graph_feeds_three_and_four_consumers():
    _, consumers = _graph_nodes(_fan_in_graph()[0])
    assert sorted(len(c) for c in consumers.values())[-2:] == [3, 4]


@pytest.mark.parametrize("graph", [_grl_update_graph, _probe_graph, _fan_in_graph])
def test_backward_runs_each_rule_once_after_all_its_consumers(graph):
    loss, _ = graph()
    nodes, consumers = _graph_nodes(loss)
    ran = []

    def recording(node):
        rule = node._backward

        def run(g):
            ran.append(node)
            return rule(g)
        return run

    for node in nodes:
        if node._parents:
            node._backward = recording(node)
    ad.backward(loss)
    position = {node: i for i, node in enumerate(ran)}
    assert len(position) == len(ran)
    inner = {n for n in nodes if n._parents and n.requires_grad}
    assert set(ran) == inner
    for node in ran:
        assert all(position[c] < position[node] for c in consumers.get(node, ()))


def test_backward_skips_rules_whose_inputs_need_no_gradient():
    x = ad.Tensor(np.arange(3.0), requires_grad=True)
    c = ad.tanh(ad.mul(np.ones(3), 2.0))

    def never(g):
        raise AssertionError("a rule ran for inputs that need no gradient")

    for node in (c, c._parents[0]):
        node._backward = never
    ad.backward(ad.sum_(ad.mul(x, c)))
    assert np.array_equal(x.grad, c.values)


def test_backward_finishes_a_long_chain():
    x = ad.Tensor(np.ones(2), requires_grad=True)
    y = x
    for _ in range(10_000):
        y = ad.add(y, 1.0)
    ad.backward(ad.sum_(y))
    assert np.array_equal(x.grad, np.ones(2))


def test_lambda_schedule_endpoints_and_midpoint():
    sched = ad.LambdaSchedule(gamma=10.0, total_updates=1000)
    assert ad.lambda_at(sched, 0) == 0.0
    assert abs(ad.lambda_at(sched, 1000) - 0.9999092) < 1e-6
    expected = 2.0 / (1.0 + np.exp(-10.0 * 0.5)) - 1.0
    assert abs(ad.lambda_at(sched, 500) - expected) < 1e-12


def test_lambda_schedule_fixed_override_and_range_check():
    sched = ad.LambdaSchedule(gamma=10.0, total_updates=100, fixed_lambda=0.5)
    assert ad.lambda_at(sched, 37) == 0.5
    with pytest.raises(OutOfRangeStep):
        ad.lambda_at(sched, 101)
    with pytest.raises(OutOfRangeStep):
        ad.lambda_at(sched, -1)


@pytest.mark.parametrize("kwargs, field", [
    ({"gamma": 0.0}, "gamma"),
    ({"gamma": -1.0}, "gamma"),
    ({"gamma": float("nan")}, "gamma"),
    ({"gamma": float("inf")}, "gamma"),
    ({"total_updates": 0}, "total_updates"),
    ({"fixed_lambda": -1.0}, "fixed_lambda"),
    ({"fixed_lambda": float("nan")}, "fixed_lambda"),
    ({"fixed_lambda": float("inf")}, "fixed_lambda"),
])
def test_lambda_schedule_rejects_invalid_fields(kwargs, field):
    """A schedule that lambda_at would turn into a negative or non-finite
    lambda is rejected on construction, naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ad.LambdaSchedule(**{"total_updates": 10, **kwargs})


def test_lambda_schedule_accepts_zero_and_positive_fixed_lambda():
    for lam in (0.0, 0.5, 10.0):
        assert ad.lambda_at(ad.LambdaSchedule(total_updates=10, fixed_lambda=lam), 3) == lam


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    params = {"enc.w": rng.normal(size=(3, 4)), "enc.b": rng.normal(size=4),
              "scalar": np.array(1.5)}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(params, path)
    loaded = ad.load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], np.asarray(params[name]))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"JUNKJUNK")
    with pytest.raises(MalformedHeader):
        ad.load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "two.ckpt"
    ad.save_checkpoint({"w": np.ones((2, 3)), "b": np.arange(3.0)}, path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(MalformedHeader):
            ad.load_checkpoint(path)
    path.write_bytes(blob + b"\0")
    with pytest.raises(MalformedHeader):
        ad.load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "bad.ckpt"
    w = np.ones((2, 3))
    w[1, 2] = bad
    ad.save_checkpoint({"b": np.zeros(3), "enc.w": w}, path)
    with pytest.raises(MalformedHeader, match="enc.w"):
        ad.load_checkpoint(path)


@pytest.mark.parametrize("raw_name", [b"\xff\xfe", b"w\x80", b"\xc3("])
def test_checkpoint_rejects_non_utf8_parameter_name(tmp_path, raw_name):
    path = tmp_path / "names.ckpt"
    ad.save_checkpoint({"ok": np.zeros(2), "ab": np.ones(3)}, path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"ab", raw_name))
    with pytest.raises(MalformedHeader, match="names.ckpt: parameter name .* is not UTF-8"):
        ad.load_checkpoint(path)


def test_average_checkpoints():
    a = {"w": np.zeros((2, 2))}
    b = {"w": np.full((2, 2), 2.0)}
    avg = ad.average_checkpoints([a, b])
    assert np.allclose(avg["w"], 1.0)
    with pytest.raises(EmptyList):
        ad.average_checkpoints([])
    with pytest.raises(ShapeMismatch):
        ad.average_checkpoints([a, {"v": np.zeros((2, 2))}])


def test_average_checkpoints_keeps_parameter_order():
    """The order the checkpoint file is written in follows the first dict,
    not the hash order of a set of names, so reruns write the same bytes."""
    names = [f"layer{i}.w" for i in range(26)][::-1]
    a = {n: np.full(2, float(i)) for i, n in enumerate(names)}
    b = {n: a[n] + 2.0 for n in reversed(names)}
    assert list(ad.average_checkpoints([a, b])) == names


def test_readme_names_every_op():
    """The README's autodiff bullet lists every op: each public function of
    voxtag.autodiff that records a backward rule on the tape."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("- **autodiff**", 1)[1].split("\n- **", 1)[0]
    ops = [name for name, f in inspect.getmembers(ad, inspect.isfunction)
           if f.__module__ == ad.__name__ and not name.startswith("_")
           and "_backward=backward" in inspect.getsource(f)]
    assert "attention" in ops and "backward" not in ops
    assert [name for name in ops if f"`{name}`" not in bullet] == []
