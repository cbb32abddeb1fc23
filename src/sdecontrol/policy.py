"""Feed-forward control policy with exact, hand-rolled vector-Jacobian products.

The network is a fixed stack of affine layers with an elementwise hidden
activation and an output activation (softplus by default, which keeps control
rates strictly positive so cumulative trade processes are nondecreasing).
Reverse mode is written out per layer instead of using a tape: the
architecture is small and fixed-depth, and every VJP is tested against
finite differences.

All methods broadcast over leading batch axes of the input.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .wiener import philox_rng

__all__ = ["Activation", "MlpPolicy", "init_params", "save_policy", "load_policy"]


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _identity(x, out=None):
    if out is None:
        return np.asarray(x, dtype=float)
    np.copyto(out, x)
    return out


def _summed_products(_layer, delta, act):
    """Layer products summed over the batch axes: one gemm, (out, in), and
    the bias sum, (out,).  ``np.dot``, not ``@``: on one row it gives the
    same bits about 3x faster (32 x 32)."""
    d = delta.reshape(-1, delta.shape[-1])
    if act.shape[:-1] != delta.shape[:-1]:
        act = np.broadcast_to(act, delta.shape[:-1] + act.shape[-1:])
    return np.dot(d.T, act.reshape(-1, act.shape[-1])), d.sum(axis=0)


def _layer_slots(layer_dims, flat):
    """Per-layer (weight, bias) views of a (..., n_theta) array, shapes
    (..., out, in) and (..., out), in the order of ``get_params``."""
    slots, off = [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        gw = flat[..., off : off + fan_out * fan_in].reshape(flat.shape[:-1] + (fan_out, fan_in))
        off += fan_out * fan_in
        slots.append((gw, flat[..., off : off + fan_out]))
        off += fan_out
    return slots


def _basis_last(a):
    """(n_out, ..., width) -> (..., n_out, width), a view: the output basis
    of a basis backward pass moved next to the last axis."""
    return a.transpose(tuple(range(1, a.ndim - 1)) + (0, a.ndim - 1))


class Activation:
    """Scalar nonlinearity identified by tag, with value and derivative.

    ``value(x, out=None)`` writes into ``out`` when given (``out`` may be
    ``x`` itself) and returns it; without ``out`` it returns a new array.
    ``deriv(x, a=None)`` is the derivative at ``x``; ``tanh`` reads it from
    ``a = value(x)`` when given (``1 - a**2``, the same bits), the others
    ignore ``a``.
    """

    _TABLE = {
        "softplus": (
            lambda x, out=None: np.logaddexp(0.0, x, out=out),
            lambda x, a=None: _sigmoid(np.asarray(x, dtype=float)),
        ),
        "tanh": (np.tanh, lambda x, a=None: 1.0 - (np.tanh(x) if a is None else a) ** 2),
        "identity": (_identity, lambda x, a=None: np.ones_like(np.asarray(x, dtype=float))),
    }

    def __init__(self, tag: str):
        if tag not in self._TABLE:
            raise ConfigurationError(f"unknown activation {tag!r}")
        self.tag = tag
        self.value, self.deriv = self._TABLE[tag]

    def __repr__(self):
        return f"Activation({self.tag!r})"


class MlpPolicy:
    """MLP control map u(x); parameters live in weight/bias arrays.

    The flattened parameter vector concatenates, layer by layer, the weight
    matrix in row-major order followed by the bias.
    """

    def __init__(
        self,
        weights,
        biases,
        hidden_activation="tanh",
        output_activation="softplus",
        with_time=False,
        seed=None,
    ):
        if len(weights) != len(biases) or not weights:
            raise ConfigurationError("weights and biases must be non-empty and aligned")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.shape[0] != b.shape[0]:
                raise ConfigurationError(f"layer {k}: weight rows != bias length")
            if k and w.shape[1] != weights[k - 1].shape[0]:
                raise ConfigurationError(f"layer {k}: input width mismatch")
        self.weights = [np.array(w, dtype=float) for w in weights]
        self.biases = [np.array(b, dtype=float) for b in biases]
        self.hidden = Activation(hidden_activation)
        self.output = Activation(output_activation)
        self.with_time = bool(with_time)
        self.seed = seed

    # -- shape / parameter plumbing -------------------------------------

    @property
    def layer_dims(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_in(self):
        return self.weights[0].shape[1]

    @property
    def n_out(self):
        return self.weights[-1].shape[0]

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([w.ravel(), b]) for w, b in zip(self.weights, self.biases)]
        )

    def set_params(self, theta) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ConfigurationError(
                f"parameter vector has length {theta.shape}, expected ({self.n_params},)"
            )
        for k, (w, b) in enumerate(_layer_slots(self.layer_dims, theta)):
            self.weights[k], self.biases[k] = w.copy(), b.copy()

    def flatten_layer_grads(self, grads) -> np.ndarray:
        """Flatten per-layer (dW, db) pairs in parameter order; batch axes kept."""
        batch = grads[0][1].shape[:-1]
        parts = []
        for gw, gb in grads:
            parts.append(gw.reshape(batch + (-1,)))
            parts.append(gb)
        return np.concatenate(parts, axis=-1)

    # -- evaluation and derivatives -------------------------------------

    def _checked_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_in:
            raise ConfigurationError(
                f"input has width {x.shape[-1]}, network expects {self.n_in}"
            )
        return x

    def eval(self, x) -> np.ndarray:
        """Network output for input of shape (..., n_in).  Each layer's
        pre-activation is overwritten by its activation; nothing is kept.
        A layer of one or two axes is ``np.dot``, the bits of ``@`` and
        faster on one row (0.86 against 1.44 us, 32 x 32); more axes keep
        ``@``, since ``np.dot`` on them uses no gemm.  The input is
        converted and checked once; the hidden layers run in the loop and the
        output layer after it."""
        a = self._checked_input(x)
        dot = np.dot if a.ndim <= 2 else np.matmul
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = dot(a, w.T)
            z += b
            a = self.hidden.value(z, out=z)
        z = dot(a, self.weights[-1].T)
        z += self.biases[-1]
        return self.output.value(z, out=z)

    def net_input(self, t, x) -> np.ndarray:
        """Network input for state x at time t: x, with t appended as a last
        column only when the policy was built with with_time=True.  ``t`` is
        a float or an array that broadcasts over the batch axes of x."""
        x = np.asarray(x, dtype=float)
        if self.with_time:
            t = np.asarray(t, dtype=float)[..., None]
            return np.concatenate([x, np.broadcast_to(t, x.shape[:-1] + (1,))], axis=-1)
        return x

    def control(self, t, x) -> np.ndarray:
        """Feedback control at (t, x); t is read only by a with_time policy."""
        return self.eval(self.net_input(t, x) if self.with_time else x)

    def linearize(self, x):
        """One forward pass at x (..., n_in), kept for reverse passes:
        (acts, slopes), each layer's input ``acts[k]`` (``acts[0]`` is x,
        ``acts[-1]`` the output) and its activation slope ``slopes[k]``,
        phi'(z_k), taken as the pass goes; no pre-activation is kept."""
        acts, slopes = [self._checked_input(x)], []
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w.T + b
            phi = self.output if k == last else self.hidden
            acts.append(phi.value(z))
            slopes.append(phi.deriv(z, acts[-1]))
        return acts, slopes

    def _backward(self, acts, slopes, cotangent, products=None):
        """Input cotangent and, when ``products`` is given, each layer k's
        ``products(k, delta, act)``, its (dW, db) cotangent products; ``acts``
        is read only by ``products``."""
        last = len(self.weights) - 1
        delta = np.asarray(cotangent, dtype=float) * slopes[last]
        grads = [None] * len(self.weights)
        for k in range(last, -1, -1):
            if products is not None:
                grads[k] = products(k, delta, acts[k])
            if k:
                delta = (delta @ self.weights[k]) * slopes[k - 1]
            else:
                delta = delta @ self.weights[0]
        return delta, grads

    def vjp_input(self, x, cotangent) -> np.ndarray:
        """cotangent^T @ d eval/d input, shape (..., n_in)."""
        return self._backward(None, self.linearize(x)[1], cotangent)[0]

    def vjp_params_layers(self, x, cotangent, forward=None):
        """Input cotangent (..., n_in) and per-layer (dW, db) cotangent
        products summed over the batch axes, shapes (out, in) and (out,),
        from one backward pass over ``forward``, which is ``linearize(x)``
        (computed here when not given).  Each layer's sum over rows is one
        gemm, ``delta^T @ act``; no per-row product is formed."""
        acts, slopes = self.linearize(x) if forward is None else forward
        return self._backward(acts, slopes, cotangent, _summed_products)

    def _basis(self, ndim):
        """The n_out unit output cotangents, shape (n_out,) + (1,) * (ndim - 1)
        + (n_out,), which broadcast over the rows of an input of ``ndim``
        axes: one backward pass of them gives every row's input Jacobian."""
        return np.eye(self.n_out).reshape((self.n_out,) + (1,) * (ndim - 1) + (self.n_out,))

    def pull_basis(self, slopes) -> np.ndarray:
        """d eval/d input, shape (..., n_out, n_in), at every row of the
        input that ``linearize`` gave ``slopes`` (all of them, or the same
        rows of each): one backward pass of the n_out unit output
        cotangents, with no forward pass."""
        return _basis_last(self._backward(None, slopes, self._basis(slopes[0].ndim))[0])

    def jacobian_input(self, x) -> np.ndarray:
        """d eval/d input, shape (..., n_out, n_in)."""
        return self.pull_basis(self.linearize(x)[1])

    def jacobian_params(self, x, out=None):
        """(d eval/d input (..., n_out, n_in), d eval/d theta (..., n_out,
        n_theta)), both from one forward and one backward pass of the n_out
        unit output cotangents.  Each layer's per-row products are written
        straight into its slot of one d eval/d theta array
        (``_layer_slots``), so no per-layer temporary is concatenated.  That
        array is ``out`` when given, which must have that shape and a unit
        stride along its last axis, and is returned; else it is allocated."""
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] + (self.n_out, self.n_params)
        jac = np.empty(shape) if out is None else out
        if jac.shape != shape or jac.strides[-1] != jac.itemsize:  # slots must be views
            raise ConfigurationError(f"out must have shape {shape} and a unit last stride")
        slots = _layer_slots(self.layer_dims, jac)

        def write(k, delta, act):
            gw, gb = slots[k]
            delta = _basis_last(delta)
            np.multiply(delta[..., None], act[..., None, None, :], out=gw)
            gb[...] = delta

        acts, slopes = self.linearize(x)
        ux = self._backward(acts, slopes, self._basis(x.ndim), write)[0]
        return _basis_last(ux), jac


def _check_layer_dims(layer_dims):
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigurationError(f"invalid layer_dims {layer_dims}")


def init_params(
    layer_dims,
    seed,
    hidden_activation="tanh",
    output_activation="softplus",
    with_time=False,
) -> MlpPolicy:
    """Fresh policy: weights uniform in +-1/sqrt(fan_in), biases zero.

    Deterministic in `seed` (Philox counter-based generator).
    """
    _check_layer_dims(layer_dims)
    rng = philox_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpPolicy(
        weights,
        biases,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        with_time=with_time,
        seed=seed,
    )


CHECKPOINT_MAGIC = "sdecontrol-policy-v1"


def save_policy(policy: MlpPolicy, path) -> None:
    """Text checkpoint: header (architecture, activations, seed) then one
    parameter per line at 17 significant digits."""
    theta = policy.get_params()
    with open(path, "w") as fh:
        fh.write(f"# {CHECKPOINT_MAGIC}\n")
        fh.write("layer_dims: " + ",".join(str(d) for d in policy.layer_dims) + "\n")
        fh.write(f"hidden_activation: {policy.hidden.tag}\n")
        fh.write(f"output_activation: {policy.output.tag}\n")
        fh.write(f"with_time: {int(policy.with_time)}\n")
        fh.write(f"seed: {policy.seed if policy.seed is not None else -1}\n")
        fh.write(f"n_params: {policy.n_params}\n")
        for v in theta:
            fh.write(f"{v:.17g}\n")


def load_policy(path) -> MlpPolicy:
    """The policy of a ``save_policy`` checkpoint.  A missing file, the
    header and the count of parameter lines are checked before any array is
    built, and the layers are slices of the stored parameter vector."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except FileNotFoundError:
        raise ConfigurationError(f"checkpoint not found: {path}") from None
    if not lines or lines[0] != f"# {CHECKPOINT_MAGIC}":
        raise ConfigurationError(f"{path} is not a policy checkpoint")
    header, idx = {}, 1
    while idx < len(lines) and ":" in lines[idx]:
        key, _, val = lines[idx].partition(":")
        header[key.strip()] = val.strip()
        idx += 1
        if key.strip() == "n_params":
            break
    try:
        layer_dims = [int(d) for d in header["layer_dims"].split(",")]
        n_params = int(header["n_params"])
        seed = int(header["seed"])
        activations = header["hidden_activation"], header["output_activation"]
        with_time = {"0": False, "1": True}[header["with_time"]]
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"malformed checkpoint header in {path}") from exc
    _check_layer_dims(layer_dims)
    philox_rng(max(seed, 0))  # rejects a seed outside the Philox key range
    expected = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))
    if not n_params == expected == len(lines) - idx:
        raise ConfigurationError(
            f"checkpoint {path} holds {len(lines) - idx} parameter lines and declares "
            f"n_params {n_params}; its layer_dims {layer_dims} need {expected}"
        )
    try:
        theta = np.array([float(v) for v in lines[idx:]])
    except ValueError as exc:
        raise ConfigurationError(f"malformed parameter in checkpoint {path}") from exc
    if not np.all(np.isfinite(theta)):
        raise ConfigurationError(f"checkpoint {path} holds non-finite parameters")
    weights, biases = zip(*_layer_slots(layer_dims, theta))
    return MlpPolicy(
        weights,
        biases,
        hidden_activation=activations[0],
        output_activation=activations[1],
        with_time=with_time,
        seed=None if seed < 0 else seed,
    )
