"""Tree convolution over binary plan trees (Mou et al. [41]).

This is the neural architecture used by Neo [38], Bao [37] and the
tree-convolution cost model of Marcus & Papaemmanouil [39]: each plan-tree
node carries a feature vector; a *tree convolution* layer maps every node to
a new vector computed from the concatenation of (node, left child, right
child) features; after a stack of such layers, dynamic max-pooling over all
nodes yields a fixed-size plan embedding which a small MLP head maps to the
prediction (cost / latency / preference score).

Trees of different shapes are batched by flattening all nodes of all trees
into one array with a shared "null" row at index 0 standing in for missing
children, which lets both the forward and the backward pass be fully
vectorized with numpy gather/scatter operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.nn import Adam, mse_loss, binary_cross_entropy_loss

__all__ = ["PlanTreeBatch", "TreeConvNet"]


@dataclass
class PlanTreeBatch:
    """A batch of binary trees flattened for vectorized tree convolution.

    Attributes
    ----------
    features:
        ``[1 + total_nodes, node_dim]`` array; row 0 is the all-zero null
        node used as the child of leaves.
    left, right:
        ``[total_nodes]`` int arrays indexing into ``features`` (0 = null).
    offsets:
        ``[n_trees + 1]`` row offsets into ``features``: tree ``i`` owns rows
        ``offsets[i]:offsets[i + 1]`` (``offsets[0] == 1``, after the null
        row).
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    offsets: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return self.n_trees

    @property
    def sizes(self) -> np.ndarray:
        """Node count of every tree, ``[n_trees]``."""
        return np.diff(self.offsets)

    @classmethod
    def from_trees(
        cls, trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> "PlanTreeBatch":
        """Build a batch from ``(features, left, right)`` triples.

        Each tree supplies node ``features`` of shape ``[n, d]`` and per-node
        child indices ``left``/``right`` in ``[-1, n)``, where ``-1`` means
        "no child".  Every node may be the child of at most one parent --
        the backward pass scatters child gradients with plain indexed
        writes, which is only a sum when no row is written twice.
        """
        if not trees:
            raise ValueError("cannot batch zero trees")
        feats = [np.asarray(f, dtype=float) for f, _, _ in trees]
        lefts = [np.asarray(lc, dtype=np.intp) for _, lc, _ in trees]
        rights = [np.asarray(rc, dtype=np.intp) for _, _, rc in trees]
        node_dim = feats[0].shape[1]
        if any(f.ndim != 2 or f.shape[1] != node_dim for f in feats):
            raise ValueError("inconsistent node feature dimensions in batch")
        sizes = np.array([f.shape[0] for f in feats], dtype=np.intp)
        if any(
            lc.shape != (n,) or rc.shape != (n,)
            for n, lc, rc in zip(sizes, lefts, rights)
        ):
            raise ValueError("child index arrays must have one entry per node")
        if not sizes.all():
            raise ValueError("cannot batch an empty tree")
        left = np.concatenate(lefts)
        right = np.concatenate(rights)
        offsets = _offsets(sizes)
        tree_size = np.repeat(sizes, sizes)
        if ((left < -1) | (left >= tree_size) | (right < -1) | (right >= tree_size)).any():
            raise ValueError("child index outside [-1, n) for its tree")
        # Shift child indices into the global array; -1 becomes the null row.
        shift = np.repeat(offsets[:-1], sizes)
        left = np.where(left >= 0, left + shift, 0)
        right = np.where(right >= 0, right + shift, 0)
        parents = np.bincount(
            np.concatenate([left, right]), minlength=int(offsets[-1])
        )
        if (parents[1:] > 1).any():
            raise ValueError("a tree node is the child of more than one parent")
        return cls(
            features=np.concatenate([np.zeros((1, node_dim)), *feats], axis=0),
            left=left,
            right=right,
            offsets=offsets,
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> "PlanTreeBatch":
        """The batch of trees ``indices`` (in that order), gathered by index.

        The result is laid out exactly as :meth:`from_trees` would lay out
        the same trees, so training on gathered minibatches of a corpus
        flattened once is bit-identical to re-batching the trees.
        """
        idx = np.asarray(indices, dtype=np.intp)
        sizes = self.sizes[idx]
        offsets = _offsets(sizes)
        # old row = new row + shift, for every node of every gathered tree.
        shift = np.repeat(self.offsets[idx] - offsets[:-1], sizes)
        rows = np.arange(1, offsets[-1]) + shift
        left = self.left[rows - 1]
        right = self.right[rows - 1]
        return PlanTreeBatch(
            features=self.features[np.concatenate(([0], rows))],
            left=np.where(left > 0, left - shift, 0),
            right=np.where(right > 0, right - shift, 0),
            offsets=offsets,
        )


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Row offsets of consecutive trees of ``sizes`` nodes after the null row."""
    offsets = np.empty(sizes.size + 1, dtype=np.intp)
    offsets[0] = 1
    np.cumsum(sizes, out=offsets[1:])
    offsets[1:] += 1
    return offsets


class _TreeConvLayer:
    """One tree-convolution layer: ``h_v = relu([x_v ; x_l ; x_r] W + b)``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        scale = math.sqrt(2.0 / (3 * in_dim))
        self.w = rng.normal(0.0, scale, size=(3 * in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self.in_dim = in_dim

    def forward(self, x: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # x: [1+N, in_dim] with null row 0.  Output: [1+N, out_dim].
        self._concat = np.concatenate([x[1:], x[left], x[right]], axis=1)
        self._left, self._right = left, right
        pre = self._concat @ self.w + self.b
        self._mask = pre > 0
        out = np.zeros((x.shape[0], self.w.shape[1]))
        out[1:] = pre * self._mask
        return out

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        # grad_out: [1+N, out_dim]; row 0 is ignored (null node has no grad).
        # ``input_grad=False`` (the first layer: its input is the plan
        # features) computes only the parameter gradients.
        g = grad_out[1:] * self._mask
        self.dw = self._concat.T @ g
        self.db = g.sum(axis=0)
        if not input_grad:
            return None
        d_concat = g @ self.w.T
        d = self.in_dim
        grad_in = np.zeros((grad_out.shape[0], d))
        grad_in[1:] += d_concat[:, :d]
        # Every node has at most one parent (checked by ``from_trees``), so
        # the child rows are unique and a plain indexed ``+=`` is the sum.
        # The null row 0 is never written: it has no gradient.
        for child, block in (
            (self._left, d_concat[:, d : 2 * d]),
            (self._right, d_concat[:, 2 * d :]),
        ):
            has = child > 0
            grad_in[child[has]] += block[has]
        return grad_in

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def gradients(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class _DenseRelu:
    """Dense + optional ReLU used in the pooled head."""

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, relu: bool = True
    ) -> None:
        scale = math.sqrt(2.0 / in_dim) if relu else math.sqrt(1.0 / in_dim)
        self.w = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self.relu = relu

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.w + self.b
        if self.relu:
            self._mask = out > 0
            out = out * self._mask
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.relu:
            grad = grad * self._mask
        self.dw = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.w.T

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def gradients(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class TreeConvNet:
    """Tree-convolution network: conv stack -> max pool -> MLP head.

    Parameters
    ----------
    node_dim:
        Dimension of per-node feature vectors.
    conv_channels:
        Output widths of the tree-convolution layers.
    head_hidden:
        Hidden widths of the MLP head applied to the pooled embedding.
    out_dim:
        Output dimension (1 for cost regression).
    sigmoid_output:
        If True the output is passed through a sigmoid (used for pairwise
        preference models such as Lero's plan comparator).
    """

    def __init__(
        self,
        node_dim: int,
        conv_channels: Sequence[int] = (64, 64),
        head_hidden: Sequence[int] = (32,),
        out_dim: int = 1,
        *,
        sigmoid_output: bool = False,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.node_dim = node_dim
        self.out_dim = out_dim
        self.sigmoid_output = sigmoid_output
        self.conv_layers: list[_TreeConvLayer] = []
        prev = node_dim
        for width in conv_channels:
            self.conv_layers.append(_TreeConvLayer(prev, width, rng))
            prev = width
        self.head: list[_DenseRelu] = []
        for width in head_hidden:
            self.head.append(_DenseRelu(prev, width, rng, relu=True))
            prev = width
        self.head.append(_DenseRelu(prev, out_dim, rng, relu=False))

    # -- forward / backward ---------------------------------------------------

    def embed(self, batch: PlanTreeBatch) -> np.ndarray:
        """Return the pooled plan embedding (before the head), ``[B, C]``."""
        x = batch.features
        for layer in self.conv_layers:
            x = layer.forward(x, batch.left, batch.right)
        # Dynamic max pooling per tree and channel.  The argmax is the
        # node ``ndarray.argmax`` picks: the *first* one reaching the
        # maximum (or the first NaN, which the maximum then is).  Other
        # nodes get a sentinel past every row, and a ``minimum.reduceat``
        # keeps the smallest row index per tree.
        starts = batch.offsets[:-1] - 1
        nodes = x[1:]
        maxima = np.maximum.reduceat(nodes, starts, axis=0)
        hit = (nodes == np.repeat(maxima, batch.sizes, axis=0)) | np.isnan(nodes)
        rows = np.arange(1, x.shape[0])[:, None]
        self._argmax = np.minimum.reduceat(
            np.where(hit, rows, x.shape[0]), starts, axis=0
        )
        self._cols = np.arange(x.shape[1])
        self._last_x_shape = x.shape
        return x[self._argmax, self._cols]

    def forward(self, batch: PlanTreeBatch) -> np.ndarray:
        pooled = self.embed(batch)
        h = pooled
        for layer in self.head:
            h = layer.forward(h)
        if self.sigmoid_output:
            self._sig = 1.0 / (1.0 + np.exp(-np.clip(h, -60, 60)))
            return self._sig
        return h

    def _backward(self, batch: PlanTreeBatch, grad: np.ndarray) -> None:
        if self.sigmoid_output:
            grad = grad * self._sig * (1.0 - self._sig)
        for layer in reversed(self.head):
            grad = layer.backward(grad)
        # Un-pool: route each pooled gradient to the argmax node.  A pooled
        # (row, column) pair belongs to exactly one tree, so they are unique.
        g = np.zeros(self._last_x_shape)
        g[self._argmax, self._cols] += grad
        for i in range(len(self.conv_layers) - 1, -1, -1):
            g = self.conv_layers[i].backward(g, input_grad=i > 0)

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.conv_layers:
            params.extend(layer.parameters())
        for layer in self.head:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for layer in self.conv_layers:
            grads.extend(layer.gradients())
        for layer in self.head:
            grads.extend(layer.gradients())
        return grads

    # -- training / inference ---------------------------------------------------

    def fit(
        self,
        trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] | PlanTreeBatch,
        y: np.ndarray,
        *,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 1e-3,
        loss: str = "mse",
        seed: int = 0,
        verbose: bool = False,
    ) -> list[float]:
        """Train on a corpus of trees; returns per-epoch losses.

        The corpus is flattened once (or passed already flattened as a
        :class:`PlanTreeBatch`) and every minibatch is gathered from it by
        index with :meth:`PlanTreeBatch.take`.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if len(trees) != y.shape[0]:
            raise ValueError("number of trees and targets differ")
        if len(trees) == 0:
            raise ValueError("cannot fit on an empty corpus")
        loss_fn = {"mse": mse_loss, "bce": binary_cross_entropy_loss}[loss]
        corpus = _as_batch(trees)
        rng = np.random.default_rng(seed)
        opt = Adam(lr=lr)
        losses: list[float] = []
        n = len(trees)
        for epoch in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch = corpus.take(idx)
                pred = self.forward(batch)
                value, grad = loss_fn(pred, y[idx])
                self._backward(batch, grad)
                opt.step(self.parameters(), self.gradients())
                total += value
                batches += 1
            losses.append(total / max(batches, 1))
            if verbose and epoch % 10 == 0:
                print(f"treeconv epoch {epoch}: loss={losses[-1]:.6f}")
        return losses

    def predict(
        self,
        trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] | PlanTreeBatch,
    ) -> np.ndarray:
        if not len(trees):
            return np.zeros((0, self.out_dim))
        out = self.forward(_as_batch(trees))
        return out[:, 0] if self.out_dim == 1 else out


def _as_batch(
    trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] | PlanTreeBatch,
) -> PlanTreeBatch:
    return trees if isinstance(trees, PlanTreeBatch) else PlanTreeBatch.from_trees(trees)
