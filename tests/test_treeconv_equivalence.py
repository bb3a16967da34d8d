"""Vectorized TreeConv vs the per-tree reference implementation.

The reference below is the original per-tree code path: batching loops
over trees, pooling takes ``ndarray.argmax`` tree by tree, and the
backward pass scatters with ``np.add.at``.  The vectorized path must
reproduce it bit for bit -- forward outputs, pooled argmax (first node on
ties), gradients and whole training runs.
"""

import numpy as np
import pytest

from repro.ml.nn import Adam, mse_loss
from repro.ml.treeconv import PlanTreeBatch, TreeConvNet


# -- reference (per-tree) implementation ---------------------------------------


def ref_from_trees(trees):
    node_dim = np.asarray(trees[0][0]).shape[1]
    feats, lefts, rights, slices = [np.zeros((1, node_dim))], [], [], []
    offset = 1
    for f, left, right in trees:
        f = np.asarray(f, dtype=float)
        left = np.asarray(left, dtype=int)
        right = np.asarray(right, dtype=int)
        n = f.shape[0]
        lefts.append(np.where(left >= 0, left + offset, 0))
        rights.append(np.where(right >= 0, right + offset, 0))
        feats.append(f)
        slices.append((offset, offset + n))
        offset += n
    return (
        np.concatenate(feats, axis=0),
        np.concatenate(lefts),
        np.concatenate(rights),
        slices,
    )


def ref_forward(net, ref_batch):
    features, left, right, slices = ref_batch
    x = features
    for layer in net.conv_layers:
        x = layer.forward(x, left, right)
    pooled = np.empty((len(slices), x.shape[1]))
    argmax = []
    for i, (start, stop) in enumerate(slices):
        rows = x[start:stop]
        arg = rows.argmax(axis=0)
        argmax.append(arg + start)
        pooled[i] = rows[arg, np.arange(rows.shape[1])]
    h = pooled
    for layer in net.head:
        h = layer.forward(h)
    if net.sigmoid_output:
        net._sig = 1.0 / (1.0 + np.exp(-np.clip(h, -60, 60)))
        h = net._sig
    return h, pooled, np.stack(argmax), x.shape


def ref_conv_backward(layer, grad_out):
    g = grad_out[1:] * layer._mask
    layer.dw = layer._concat.T @ g
    layer.db = g.sum(axis=0)
    d_concat = g @ layer.w.T
    d = layer.in_dim
    grad_in = np.zeros((grad_out.shape[0], d))
    grad_in[1:] += d_concat[:, :d]
    np.add.at(grad_in, layer._left, d_concat[:, d : 2 * d])
    np.add.at(grad_in, layer._right, d_concat[:, 2 * d :])
    grad_in[0] = 0.0
    return grad_in


def ref_backward(net, argmax, x_shape, grad):
    if net.sigmoid_output:
        grad = grad * net._sig * (1.0 - net._sig)
    for layer in reversed(net.head):
        grad = layer.backward(grad)
    grad_nodes = np.zeros(x_shape)
    cols = np.arange(x_shape[1])
    for i in range(len(argmax)):
        np.add.at(grad_nodes, (argmax[i], cols), grad[i])
    g = grad_nodes
    for layer in reversed(net.conv_layers):
        g = ref_conv_backward(layer, g)


def ref_fit(net, trees, y, *, epochs, batch_size, lr, seed):
    y = np.asarray(y, dtype=float)[:, None]
    rng = np.random.default_rng(seed)
    opt = Adam(lr=lr)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(trees))
        total, batches = 0.0, 0
        for start in range(0, len(trees), batch_size):
            idx = order[start : start + batch_size]
            pred, _, argmax, shape = ref_forward(
                net, ref_from_trees([trees[i] for i in idx])
            )
            value, grad = mse_loss(pred, y[idx])
            ref_backward(net, argmax, shape, grad)
            opt.step(net.parameters(), net.gradients())
            total += value
            batches += 1
        losses.append(total / batches)
    return losses


# -- fixtures ------------------------------------------------------------------------


def random_tree(rng, n_max=9, dim=5):
    """Random binary tree in pre-order: nodes get 0, 1 or 2 children."""
    budget = int(rng.integers(1, n_max + 1))
    left, right = [], []

    def grow():
        me = len(left)
        left.append(-1)
        right.append(-1)
        for side in (left, right):
            if len(left) < budget and rng.random() < 0.6:
                side[me] = grow()
        return me

    grow()
    n = len(left)
    return rng.normal(size=(n, dim)), np.array(left), np.array(right)


def random_forest(seed, n_trees=40):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng) for _ in range(n_trees)]
    # Single-node trees and exact duplicate leaves force pooling ties.
    trees.append((rng.normal(size=(1, 5)), np.array([-1]), np.array([-1])))
    leaf = rng.normal(size=5)
    trees.append(
        (np.stack([rng.normal(size=5), leaf, leaf]), np.array([1, -1, -1]), np.array([2, -1, -1]))
    )
    return trees


def tied_net(seed):
    """A net whose last conv layer has two all-zero ReLU columns: channel 0
    is exactly 0 everywhere, channel 1 is negative (ReLU gives -0.0)."""
    net = TreeConvNet(5, (8, 6), (4,), seed=seed)
    last = net.conv_layers[-1]
    last.w[:, 0] = 0.0
    last.b[0] = 0.0
    last.w[:, 1] = 0.0
    last.b[1] = -1.0
    return net


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# -- tests ----------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_from_trees_matches_reference_layout(seed):
    trees = random_forest(seed)
    features, left, right, slices = ref_from_trees(trees)
    batch = PlanTreeBatch.from_trees(trees)
    assert_bits_equal(batch.features, features)
    assert_bits_equal(batch.left, left)
    assert_bits_equal(batch.right, right)
    assert list(zip(batch.offsets[:-1], batch.offsets[1:])) == slices


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_take_matches_rebatching(seed):
    trees = random_forest(seed)
    corpus = PlanTreeBatch.from_trees(trees)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(trees), size=25)  # with repeats, any order
    gathered = corpus.take(idx)
    rebatched = PlanTreeBatch.from_trees([trees[i] for i in idx])
    for name in ("features", "left", "right", "offsets"):
        assert_bits_equal(getattr(gathered, name), getattr(rebatched, name))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make_net", [lambda s: TreeConvNet(5, (8, 6), (4,), seed=s), tied_net])
def test_forward_argmax_and_gradients_bit_equal(seed, make_net):
    trees = random_forest(seed)
    target = np.random.default_rng(seed).normal(size=(len(trees), 1))
    new, ref = make_net(seed), make_net(seed)

    batch = PlanTreeBatch.from_trees(trees)
    pred = new.forward(batch)
    ref_pred, ref_pooled, ref_argmax, shape = ref_forward(ref, ref_from_trees(trees))
    assert_bits_equal(pred, ref_pred)
    assert_bits_equal(new.embed(batch), ref_pooled)
    assert_bits_equal(new._argmax, ref_argmax)

    new.forward(batch)
    new._backward(batch, mse_loss(pred, target)[1])
    ref_backward(ref, ref_argmax, shape, mse_loss(ref_pred, target)[1])
    for g_new, g_ref in zip(new.gradients(), ref.gradients()):
        assert_bits_equal(g_new, g_ref)


def test_ties_pick_the_first_node():
    trees = random_forest(0)
    net = tied_net(0)
    batch = PlanTreeBatch.from_trees(trees)
    net.embed(batch)
    first_rows = batch.offsets[:-1]
    assert np.array_equal(net._argmax[:, 0], first_rows)
    assert np.array_equal(net._argmax[:, 1], first_rows)
    # The duplicate-leaf tree ties its two leaves on every channel where a
    # leaf is the maximum; the earlier leaf (row start + 1) must win.
    start = batch.offsets[-2]
    assert not np.any(net._argmax[-1] == start + 2)


def test_nan_pools_like_argmax():
    # Without conv layers the pooled rows are the input features, so a NaN
    # can sit on a later node than the channel's finite maximum: argmax
    # (and the pooling) must pick that first NaN.
    trees = random_forest(5)
    k = next(i for i, t in enumerate(trees) if t[0].shape[0] >= 3)
    feats = trees[k][0].copy()
    feats[2, 1] = np.nan
    feats[1, 3] = np.nan
    trees[k] = (feats, trees[k][1], trees[k][2])
    net, ref = TreeConvNet(5, (), (3,), seed=5), TreeConvNet(5, (), (3,), seed=5)
    batch = PlanTreeBatch.from_trees(trees)
    pooled = net.embed(batch)
    _, ref_pooled, ref_argmax, _ = ref_forward(ref, ref_from_trees(trees))
    assert_bits_equal(net._argmax, ref_argmax)
    assert_bits_equal(pooled, ref_pooled)
    assert np.isnan(pooled[k, 1]) and np.isnan(pooled[k, 3])


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("make_net", [lambda s: TreeConvNet(5, (8, 6), (4,), seed=s), tied_net])
def test_fit_losses_and_weights_bit_equal(seed, make_net):
    trees = random_forest(seed)
    y = np.random.default_rng(seed + 10).normal(size=len(trees))
    new, ref = make_net(seed), make_net(seed)
    kwargs = dict(epochs=3, batch_size=8, lr=5e-3, seed=seed)
    losses = new.fit(trees, y, **kwargs)
    ref_losses = ref_fit(ref, trees, y, **kwargs)
    assert_bits_equal(np.array(losses), np.array(ref_losses))
    for p_new, p_ref in zip(new.parameters(), ref.parameters()):
        assert_bits_equal(p_new, p_ref)


def test_fit_on_flattened_corpus_equals_fit_on_trees():
    trees = random_forest(4)
    y = np.random.default_rng(4).normal(size=len(trees))
    a, b = TreeConvNet(5, (8,), (4,), seed=0), TreeConvNet(5, (8,), (4,), seed=0)
    la = a.fit(trees, y, epochs=2, batch_size=8, seed=1)
    lb = b.fit(PlanTreeBatch.from_trees(trees), y, epochs=2, batch_size=8, seed=1)
    assert_bits_equal(np.array(la), np.array(lb))
    assert_bits_equal(a.predict(trees), b.predict(PlanTreeBatch.from_trees(trees)))
