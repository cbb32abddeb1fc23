"""Tests for the MLP policy: evaluation, VJPs, init, and checkpoints."""

import re

import numpy as np
import pytest

from sdecontrol import policy as policy_module
from sdecontrol.errors import ConfigurationError
from sdecontrol.policy import (
    Activation,
    MlpPolicy,
    _layer_slots,
    init_params,
    load_policy,
    save_policy,
)


def zero_policy(layer_dims, **kw):
    weights = [np.zeros((o, i)) for i, o in zip(layer_dims[:-1], layer_dims[1:])]
    biases = [np.zeros(o) for o in layer_dims[1:]]
    return MlpPolicy(weights, biases, **kw)


def reference_eval(policy, x):
    """Independent re-implementation of the forward pass."""
    a = np.asarray(x, dtype=float)
    last = len(policy.weights) - 1
    for k, (w, b) in enumerate(zip(policy.weights, policy.biases)):
        z = w @ a + b
        if k == last:
            a = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)  # softplus
        else:
            a = np.tanh(z)
    return a


class TestActivation:
    def test_unknown_tag(self):
        with pytest.raises(ConfigurationError):
            Activation("relu")

    @pytest.mark.parametrize("tag", ["softplus", "tanh", "identity"])
    def test_derivative_matches_fd(self, tag):
        act = Activation(tag)
        xs = np.linspace(-4.0, 4.0, 41)
        h = 1e-6
        fd = (act.value(xs + h) - act.value(xs - h)) / (2 * h)
        assert np.allclose(act.deriv(xs), fd, atol=1e-7)

    def test_softplus_at_zero(self):
        assert Activation("softplus").value(0.0) == pytest.approx(np.log(2.0))

    def test_softplus_stable_at_extremes(self):
        act = Activation("softplus")
        assert np.isfinite(act.value(1000.0))
        assert act.value(-1000.0) == 0.0
        assert act.deriv(1000.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("tag", ["softplus", "tanh", "identity"])
    def test_value_into_out_matches_fresh_value(self, tag):
        act = Activation(tag)
        z = np.array([[-1000.0, -30.0, -1e-3, 0.0], [1e-3, 30.0, 1000.0, 2.5]])
        buf = np.full_like(z, np.nan)
        assert act.value(z, out=buf) is buf
        assert np.array_equal(buf, act.value(z))
        inplace = z.copy()
        assert act.value(inplace, out=inplace) is inplace
        assert np.array_equal(inplace, act.value(z))


class TestEval:
    def test_zero_network_softplus_ln2(self):
        policy = zero_policy([2, 8, 2])
        out = policy.eval(np.array([0.3, -1.2]))
        assert np.allclose(out, np.log(2.0))

    def test_identity_single_layer(self):
        policy = MlpPolicy(
            [np.eye(3)], [np.zeros(3)], output_activation="identity"
        )
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(policy.eval(x), x)

    def test_matches_reference_implementation(self):
        policy = init_params([2, 32, 32, 32, 2], seed=5)
        rng = np.random.Generator(np.random.Philox(key=1))
        for _ in range(10):
            x = rng.standard_normal(2)
            assert np.allclose(policy.eval(x), reference_eval(policy, x), atol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (50, 2), (4548, 2), (5, 10, 2)])
    def test_bits_of_a_layer_by_layer_matmul(self, shape):
        # One and two axes go through np.dot, more through @: the same bits.
        policy = init_params([2, 32, 32, 32, 2], seed=5)
        a = np.random.Generator(np.random.Philox(key=4)).standard_normal(shape)
        want = a
        for k, (w, b) in enumerate(zip(policy.weights, policy.biases)):
            z = want @ w.T
            z += b
            want = (policy.output if k == len(policy.weights) - 1 else policy.hidden).value(z)
        assert np.array_equal(policy.eval(a), want)

    def test_batched_eval(self):
        policy = init_params([2, 8, 2], seed=0)
        xs = np.random.Generator(np.random.Philox(key=2)).standard_normal((7, 3, 2))
        out = policy.eval(xs)
        assert out.shape == (7, 3, 2)
        assert np.allclose(out[4, 1], policy.eval(xs[4, 1]), atol=1e-14)

    def test_softplus_outputs_positive(self):
        policy = init_params([2, 16, 2], seed=9)
        xs = np.random.Generator(np.random.Philox(key=3)).standard_normal((100, 2)) * 50
        assert np.all(policy.eval(xs) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            init_params([2, 4, 1], seed=0).eval(np.zeros(3))

    def test_with_time_appends_coordinate(self):
        policy = init_params([3, 4, 1], seed=0, with_time=True)
        x = np.array([1.0, 2.0])
        direct = policy.eval(np.array([1.0, 2.0, 0.7]))
        assert np.allclose(policy.control(0.7, x), direct)


class TestVjpInput:
    def test_identity_network(self):
        policy = MlpPolicy([np.eye(2)], [np.zeros(2)], output_activation="identity")
        cot = np.array([0.3, -0.7])
        assert np.allclose(policy.vjp_input(np.array([1.0, 2.0]), cot), cot)

    def test_zero_cotangent(self):
        policy = init_params([2, 8, 2], seed=0)
        out = policy.vjp_input(np.array([0.5, 0.5]), np.zeros(2))
        assert np.all(out == 0.0)

    def test_matches_finite_differences(self):
        policy = init_params([3, 16, 2], seed=4)
        rng = np.random.Generator(np.random.Philox(key=5))
        x = rng.standard_normal(3)
        cot = rng.standard_normal(2)
        analytic = policy.vjp_input(x, cot)
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = cot @ (policy.eval(xp) - policy.eval(xm)) / (2 * h)
            assert abs(analytic[j] - fd) < 1e-5 * max(1.0, abs(fd))


class TestVjpParams:
    def test_zero_cotangent(self):
        policy = init_params([2, 8, 2], seed=0)
        _, layers = policy.vjp_params_layers(np.array([0.5, 0.5]), np.zeros(2))
        out = policy.flatten_layer_grads(layers)
        assert out.shape == (policy.n_params,)
        assert np.all(out == 0.0)

    def test_affine_layer_closed_form(self):
        policy = MlpPolicy(
            [np.array([[1.0, 2.0], [3.0, 4.0]])],
            [np.zeros(2)],
            output_activation="identity",
        )
        x = np.array([0.5, -1.0])
        cot = np.array([2.0, 3.0])
        grad = policy.flatten_layer_grads(policy.vjp_params_layers(x, cot)[1])
        # layout: A row-major then b; dJ/dA = outer(cot, x), dJ/db = cot
        expected = np.concatenate([np.outer(cot, x).ravel(), cot])
        assert np.allclose(grad, expected, atol=1e-14)

    def test_matches_finite_differences(self):
        policy = init_params([2, 8, 2], seed=6)
        rng = np.random.Generator(np.random.Philox(key=7))
        x = rng.standard_normal(2)
        cot = rng.standard_normal(2)
        analytic = policy.flatten_layer_grads(policy.vjp_params_layers(x, cot)[1])
        theta = policy.get_params()
        h = 1e-6
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            policy.set_params(tp)
            up = policy.eval(x)
            policy.set_params(tm)
            um = policy.eval(x)
            fd = cot @ (up - um) / (2 * h)
            assert abs(analytic[j] - fd) < 1e-5 * max(1.0, abs(fd))
        policy.set_params(theta)

    def test_vjp_jvp_duality(self):
        policy = init_params([3, 12, 2], seed=8)
        rng = np.random.Generator(np.random.Philox(key=9))
        for _ in range(5):
            x = rng.standard_normal(3)
            v = rng.standard_normal(3)
            w = rng.standard_normal(2)
            lhs = policy.vjp_input(x, w) @ v
            h = 1e-6
            jvp = (policy.eval(x + h * v) - policy.eval(x - h * v)) / (2 * h)
            rhs = w @ jvp
            assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))

    def test_jacobians_consistent_with_vjps(self):
        policy = init_params([2, 6, 2], seed=10)
        x = np.array([0.4, -0.9])
        ji = policy.jacobian_input(x)
        _, jp = policy.jacobian_params(x)
        for cot in np.eye(2):
            assert np.allclose(cot @ ji, policy.vjp_input(x, cot), atol=1e-13)
            vt = policy.flatten_layer_grads(policy.vjp_params_layers(x, cot)[1])
            assert np.allclose(cot @ jp, vt, atol=1e-13)
        # The fused passes return the single-purpose results bit for bit.
        policy = init_params([3, 6, 5, 2], seed=11)
        rng = np.random.Generator(np.random.Philox(key=12))
        for batch in ((), (4,), (2, 3)):
            x = rng.standard_normal(batch + (3,))
            cot = rng.standard_normal(batch + (2,))
            cx, layers = policy.vjp_params_layers(x, cot)
            assert np.array_equal(cx, policy.vjp_input(x, cot))
            jx, jp = policy.jacobian_params(x)
            assert jx.shape == batch + (2, 3) and jp.shape == batch + (2, policy.n_params)
            assert np.array_equal(jx, policy.jacobian_input(x))

    def test_jacobian_slots_are_views_in_parameter_order(self):
        # jacobian_params writes each layer's products into its slot of one
        # array; a slot that were a copy would leave that array unwritten.
        policy = init_params([3, 6, 5, 2], seed=15)
        jac = np.zeros((4, 2, policy.n_params))
        slots = _layer_slots(policy.layer_dims, jac)
        for (gw, gb), w, b in zip(slots, policy.weights, policy.biases):
            assert np.shares_memory(gw, jac) and np.shares_memory(gb, jac)
            gw[...], gb[...] = w, b
        assert np.array_equal(jac, np.broadcast_to(policy.get_params(), jac.shape))

    @pytest.mark.parametrize("batch", [(), (7,), (2, 3)])
    def test_jacobian_params_into_a_given_array(self, batch):
        # Forward sensitivity passes a strided view of its slab: rows n_x: of
        # each step's [S; du/dtheta].  The call writes there and returns it,
        # with the bits of the allocating call, and leaves the rest alone.
        policy = init_params([3, 6, 5, 2], seed=18, with_time=True)
        x = np.random.Generator(np.random.Philox(key=19)).standard_normal(batch + (3,))
        slab = np.full(batch + (5, policy.n_params), 7.0)
        buf = slab[..., 3:, :]
        jx, jp = policy.jacobian_params(x, out=buf)
        want_jx, want_jp = policy.jacobian_params(x)
        assert jp is buf and np.array_equal(jp, want_jp) and np.array_equal(jx, want_jx)
        assert np.all(slab[..., :3, :] == 7.0)
        with pytest.raises(ConfigurationError, match="out must have shape"):
            policy.jacobian_params(x, out=slab[..., :2, ::2])

    @pytest.mark.parametrize("lanes", [(), (3,)], ids=["rows", "rows-by-lanes"])
    def test_net_input_with_array_time(self, lanes):
        # A block of B stored states with its grid times, t of shape (B,) +
        # (1,) * lane axes, gives the stacked per-row inputs and Jacobians.
        policy = init_params([3, 6, 5, 2], seed=16, with_time=True)
        rng = np.random.Generator(np.random.Philox(key=17))
        x = rng.standard_normal((5,) + lanes + (2,))
        t = rng.uniform(0.0, 1.0, (5,) + (1,) * len(lanes))
        block = policy.net_input(t, x)
        jx, jp = policy.jacobian_params(block)
        for idx in np.ndindex(x.shape[:-1]):
            row = policy.net_input(t[idx[0]].item(), x[idx])
            assert np.array_equal(block[idx], row)
            for got, want in zip((jx[idx], jp[idx]), policy.jacobian_params(row)):
                assert np.max(np.abs(got - want)) <= 1e-14
        # A scalar t appends the same column bit for bit.
        col = np.full(x.shape[:-1] + (1,), 0.3)
        assert np.array_equal(policy.net_input(0.3, x), np.concatenate([x, col], axis=-1))

    def test_layer_products_summed_over_batch(self):
        # One gemm per layer gives the sum over rows of the per-row products.
        policy = init_params([3, 6, 5, 2], seed=13)
        rng = np.random.Generator(np.random.Philox(key=14))
        for batch in ((), (4,), (2, 3)):
            x = rng.standard_normal(batch + (3,))
            cot = rng.standard_normal(batch + (2,))
            _, layers = policy.vjp_params_layers(x, cot)
            assert [(gw.shape, gb.shape) for gw, gb in layers] == [
                (w.shape, b.shape) for w, b in zip(policy.weights, policy.biases)
            ]
            _, jp = policy.jacobian_params(x)
            rows = np.einsum("...o,...op->...p", cot, jp).reshape(-1, policy.n_params)
            summed = policy.flatten_layer_grads(layers)
            assert np.allclose(summed, rows.sum(axis=0), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("output", ["softplus", "tanh"])
    def test_tanh_derivative_from_stored_activation_is_bitwise(self, output):
        # The backward pass reads tanh' as 1 - a**2 from the stored activation;
        # the reference recomputes 1 - tanh(z)**2 from the pre-activation.
        policy = init_params([3, 6, 5, 2], seed=21, output_activation=output)
        reference = init_params([3, 6, 5, 2], seed=21, output_activation=output)
        for act in (reference.hidden, reference.output):
            if act.tag == "tanh":
                act.deriv = lambda z, a=None: 1.0 - np.tanh(z) ** 2
        rng = np.random.Generator(np.random.Philox(key=22))
        for batch in ((), (4,), (2, 3)):
            x = 3.0 * rng.standard_normal(batch + (3,))
            cot = rng.standard_normal(batch + (2,))
            cx, layers = policy.vjp_params_layers(x, cot)
            ref_cx, ref_layers = reference.vjp_params_layers(x, cot)
            assert np.array_equal(cx, ref_cx)
            for (gw, gb), (rw, rb) in zip(layers, ref_layers):
                assert np.array_equal(gw, rw) and np.array_equal(gb, rb)
            for got, want in zip(policy.jacobian_params(x), reference.jacobian_params(x)):
                assert np.array_equal(got, want)


def inline_slope_backward(policy, x, cotangent):
    """Reference backward pass that computes each layer's slope inline from
    its pre-activation: (input cotangent, per-layer deltas, layer inputs)."""
    z, acts, pres = np.asarray(x, dtype=float), [], []
    for w, b in zip(policy.weights, policy.biases):
        acts.append(z)
        pres.append(z @ w.T + b)
        z = (policy.output if len(pres) == len(policy.weights) else policy.hidden).value(pres[-1])
    acts.append(z)
    last = len(policy.weights) - 1
    delta = np.asarray(cotangent, dtype=float) * policy.output.deriv(pres[last], acts[last + 1])
    deltas = [None] * (last + 1)
    for k in range(last, -1, -1):
        deltas[k] = delta
        delta = delta @ policy.weights[k]
        if k:
            delta = delta * policy.hidden.deriv(pres[k - 1], acts[k])
    return delta, deltas, acts


LINEARIZED = [
    ("tanh", "softplus", False),
    ("tanh", "identity", True),
    ("identity", "softplus", True),
    ("identity", "identity", False),
]


@pytest.mark.parametrize(
    "hidden, output, with_time", LINEARIZED, ids=["-".join(map(str, c)) for c in LINEARIZED]
)
class TestLinearize:
    """``linearize`` keeps one forward pass, each layer's input and slope;
    ``vjp_params_layers(forward=)`` and ``pull_basis`` reuse it."""

    @staticmethod
    def _policy(hidden, output, with_time):
        return init_params(
            [3 if with_time else 2, 6, 5, 2],
            seed=31,
            hidden_activation=hidden,
            output_activation=output,
            with_time=with_time,
        )

    def test_parameter_vjp_on_a_kept_forward_is_bitwise(self, hidden, output, with_time):
        policy = self._policy(hidden, output, with_time)
        rng = np.random.Generator(np.random.Philox(key=32))
        for batch in ((), (9,), (2, 3)):
            x = 2.0 * rng.standard_normal(batch + (policy.n_in,))
            cot = rng.standard_normal(batch + (2,))
            cx, layers = policy.vjp_params_layers(x, cot, forward=policy.linearize(x))
            want_cx, want_layers = policy.vjp_params_layers(x, cot)
            assert np.array_equal(cx, want_cx)
            for (gw, gb), (ww, wb) in zip(layers, want_layers):
                assert np.array_equal(gw, ww) and np.array_equal(gb, wb)

    def test_row_slopes_give_the_row_input_jacobian(self, hidden, output, with_time):
        # pull_basis over one row of each slope is that row's input Jacobian:
        # bit for bit on a one-row block; a block's forward is one gemm over
        # its rows, whose last bits may differ.
        policy = self._policy(hidden, output, with_time)
        rng = np.random.Generator(np.random.Philox(key=33))
        for rows in (1, 9):
            x = 2.0 * rng.standard_normal((rows, policy.n_in))
            _, slopes = policy.linearize(x)
            for j in range(rows):
                got = policy.pull_basis([s[j] for s in slopes])
                want = policy.jacobian_input(x[j])
                if rows == 1:
                    assert np.array_equal(got, want)
                else:
                    # The terms that round are those of |c|^T |du/dx| for each
                    # unit output cotangent c, that is, each row of |du/dx|.
                    terms = np.max(np.abs(want), axis=-1, keepdims=True)
                    assert np.all(np.abs(got - want) <= 4 * np.spacing(terms))

    def test_block_input_jacobian_from_the_basis_pull(self, hidden, output, with_time):
        # pull_basis gives du/dx at every row of a linearized block, as the
        # adjoint sweep reads it: jacobian_input's bits on one input row
        # (batch ()), and within 1e-15 of its largest entry on a block of
        # several rows, whose forward is one gemm over them.
        policy = self._policy(hidden, output, with_time)
        rng = np.random.Generator(np.random.Philox(key=35))
        for batch in ((), (4,), (2, 3)):
            x = 2.0 * rng.standard_normal(batch + (policy.n_in,))
            ux = policy.pull_basis(policy.linearize(x)[1])
            assert ux.shape == batch + (2, policy.n_in)
            for row in np.ndindex(batch):
                want = policy.jacobian_input(x[row])
                if not batch:
                    assert np.array_equal(ux[row], want)
                else:
                    assert np.max(np.abs(ux[row] - want)) <= 1e-15 * np.max(np.abs(want))

    def test_stored_slopes_give_the_inline_slope_bits(self, hidden, output, with_time):
        # vjp_input and jacobian_params (whose du/dx is jacobian_input's, see
        # test_jacobians_consistent_with_vjps) read the slopes that linearize
        # stored; the reference computes them inline, by the same
        # Activation.deriv calls.
        policy = self._policy(hidden, output, with_time)
        rng = np.random.Generator(np.random.Philox(key=34))
        for batch in ((), (9,), (2, 3)):
            x = 2.0 * rng.standard_normal(batch + (policy.n_in,))
            cot = rng.standard_normal(batch + (2,))
            assert np.array_equal(policy.vjp_input(x, cot), inline_slope_backward(policy, x, cot)[0])
            # Every unit output cotangent at once, the output basis leading.
            basis = np.eye(2).reshape((2,) + (1,) * len(batch) + (2,))
            cx, deltas, acts = inline_slope_backward(policy, x, basis)
            jx, jp = policy.jacobian_params(x)
            assert np.array_equal(jx, np.moveaxis(cx, 0, -2))
            for (gw, gb), delta, act in zip(_layer_slots(policy.layer_dims, jp), deltas, acts):
                assert np.array_equal(gb, np.moveaxis(delta, 0, -2))
                products = delta[..., :, None] * act[..., None, :]
                assert np.array_equal(gw, np.moveaxis(products, 0, -3))


class TestInitParams:
    def test_deterministic(self):
        a = init_params([2, 32, 2], seed=3)
        b = init_params([2, 32, 2], seed=3)
        assert np.array_equal(a.get_params(), b.get_params())

    def test_parameter_count(self):
        policy = init_params([2, 32, 32, 32, 2], seed=0)
        assert policy.n_params == 2274
        assert policy.get_params().size == 2274

    def test_biases_zero(self):
        policy = init_params([2, 16, 3], seed=1)
        for b in policy.biases:
            assert np.all(b == 0.0)

    def test_weight_scale(self):
        policy = init_params([100, 50], seed=2)
        bound = 1.0 / np.sqrt(100)
        assert np.all(np.abs(policy.weights[0]) <= bound)

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            init_params([2], seed=0)
        with pytest.raises(ConfigurationError):
            init_params([2, 0, 1], seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            init_params([2, 4, 2], seed=seed)

    def test_flatten_roundtrip(self):
        policy = init_params([2, 8, 3], seed=4)
        theta = policy.get_params()
        policy.set_params(theta)
        assert np.array_equal(policy.get_params(), theta)

    def test_set_params_wrong_length(self):
        policy = init_params([2, 4, 1], seed=0)
        with pytest.raises(ConfigurationError):
            policy.set_params(np.zeros(policy.n_params + 1))


class TestCheckpoint:
    def test_unseeded_policy_round_trips(self, tmp_path):
        # The header stores a missing seed as -1; loading maps it back to None.
        policy = init_params([2, 4, 2], seed=3)
        policy.seed = None
        save_policy(policy, tmp_path / "policy.txt")
        loaded = load_policy(tmp_path / "policy.txt")
        assert loaded.seed is None
        assert np.array_equal(loaded.get_params(), policy.get_params())

    def test_seed_outside_philox_key_range_rejected(self, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 2], seed=3), path)
        path.write_text(path.read_text().replace("seed: 3", f"seed: {2**128}"))
        with pytest.raises(ConfigurationError, match="seed"):
            load_policy(path)

    def test_round_trip_bit_equality(self, tmp_path):
        policy = init_params([2, 32, 32, 32, 2], seed=7)
        policy.set_params(policy.get_params() * 1.2345)
        path = tmp_path / "policy.txt"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.layer_dims == policy.layer_dims
        assert loaded.hidden.tag == policy.hidden.tag
        assert loaded.output.tag == policy.output.tag
        assert np.array_equal(loaded.get_params(), policy.get_params())

    def test_missing_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(ConfigurationError, match=f"checkpoint not found: {re.escape(str(path))}"):
            load_policy(path)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ConfigurationError):
            load_policy(path)

    def test_rejects_truncated(self, tmp_path):
        policy = init_params([2, 4, 1], seed=0)
        path = tmp_path / "policy.txt"
        save_policy(policy, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ConfigurationError):
            load_policy(path)

    @pytest.mark.parametrize("key", ["hidden_activation", "output_activation", "with_time"])
    def test_rejects_missing_header_line(self, tmp_path, key):
        path = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 1], seed=0), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(key + ":")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError):
            load_policy(path)

    def test_rejects_lines_after_the_last_parameter(self, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 1], seed=0), path)
        path.write_text(path.read_text() + "0.5\n")
        with pytest.raises(ConfigurationError, match="parameter lines"):
            load_policy(path)

    @pytest.mark.parametrize("flag", ["2", "-1", "true"])
    def test_rejects_with_time_other_than_0_or_1(self, tmp_path, flag):
        path = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 1], seed=0), path)
        path.write_text(path.read_text().replace("with_time: 0", f"with_time: {flag}"))
        with pytest.raises(ConfigurationError, match="malformed checkpoint header"):
            load_policy(path)

    @pytest.mark.parametrize("n_params", [34, 500000002])
    def test_huge_layer_dims_rejected_before_allocating(self, tmp_path, monkeypatch, n_params):
        # layer_dims 2,1e8,2 need 500000002 parameters (4 GB): a checkpoint
        # that declares fewer, or holds fewer lines, is rejected from the
        # header and the line count, with no weights drawn or built.
        path = tmp_path / "policy.txt"
        save_policy(init_params([2, 8, 2], seed=0), path)
        text = path.read_text().replace("layer_dims: 2,8,2", "layer_dims: 2,100000000,2")
        path.write_text(text.replace("n_params: 34", f"n_params: {n_params}"))

        def no_weights(*args, **kwargs):
            raise AssertionError("load_policy built weights before checking the header")

        monkeypatch.setattr(policy_module, "init_params", no_weights)
        monkeypatch.setattr(policy_module, "MlpPolicy", no_weights)
        with pytest.raises(ConfigurationError, match="need 500000002"):
            load_policy(path)

    def test_layers_are_the_stored_parameters(self, tmp_path, monkeypatch):
        # Loading draws no random weights: the layers come from the file.
        policy = init_params([2, 5, 3, 2], seed=4)
        path = tmp_path / "policy.txt"
        save_policy(policy, path)
        monkeypatch.setattr(policy_module, "init_params", None)
        loaded = load_policy(path)
        for a, b in zip(loaded.weights + loaded.biases, policy.weights + policy.biases):
            assert np.array_equal(a, b)
        assert loaded.seed == 4 and not loaded.with_time

    @pytest.mark.parametrize("weight", ["nan", "-inf", "0.5x"])
    def test_rejects_bad_weight(self, tmp_path, weight):
        path = tmp_path / "policy.txt"
        save_policy(init_params([2, 4, 1], seed=0), path)
        lines = path.read_text().splitlines()
        lines[-2] = weight
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError):
            load_policy(path)
