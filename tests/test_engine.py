import math
from dataclasses import replace

import numpy as np
import pytest

from sino import engine as eg
from sino import freq2vec
from sino import model as sino_model
from sino import training
from sino.config import presets
from sino.engine import Tensor
from sino.solvers import integrate, sample_ic
from sino.spectral import freq_grid


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def real(a) -> Tensor:
    """The real part of a complex tensor, as a tape op."""
    a = eg.as_tensor(a)

    def vjp(g):
        return (g.astype(np.complex128),)

    return eg._node(np.ascontiguousarray(a.data.real), (a,), vjp)


def sub(a, b) -> Tensor:
    a, b = eg.as_tensor(a), eg.as_tensor(b)

    def vjp(g):
        return eg._unbroadcast(g, a.data.shape), eg._unbroadcast(-g, b.data.shape)

    return eg._node(a.data - b.data, (a, b), vjp)


def sum_all(a) -> Tensor:
    a = eg.as_tensor(a)

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape),)

    return eg._node(a.data.sum(), (a,), vjp)


def mean_all(a) -> Tensor:
    a = eg.as_tensor(a)
    return eg.mul(sum_all(a), 1.0 / a.data.size)


def transpose(a, axes) -> Tensor:
    a = eg.as_tensor(a)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return eg._node(np.ascontiguousarray(np.transpose(a.data, axes)), (a,), vjp)


def rfftn(a, axes) -> Tensor:
    """Unnormalized FFT of a real field; the last of axes keeps modes 0..N/2."""
    a = eg.as_tensor(a)
    shape = tuple(a.data.shape[ax] for ax in axes)

    def vjp(g):
        g = eg._weight_interior(g.copy(), axes[-1], shape[-1], 0.5)
        return (math.prod(shape) * np.fft.irfftn(g, s=shape, axes=axes),)

    return eg._node(np.fft.rfftn(a.data, axes=axes), (a,), vjp)


def irfftn(a, axes, s) -> Tensor:
    """Normalized inverse of rfftn: a half spectrum to the real field of shape s."""
    a = eg.as_tensor(a)
    s = tuple(s)

    def vjp(g):
        gh = np.fft.rfftn(g, axes=axes) / math.prod(s)
        return (eg._weight_interior(gh, axes[-1], s[-1], 2.0),)

    return eg._node(np.fft.irfftn(a.data, s=s, axes=axes), (a,), vjp)


def affine_product(d, factors, out_w) -> Tensor:
    """out_w @ prod_p (w_p @ d + b_p) of real 2D operands, as one tape node.

    factors is a sequence of (w_p, b_p) pairs, each b_p broadcasting against
    w_p @ d. The node keeps d and the weights, not the factors: its pullback
    recomputes them.
    """
    d, out_w = eg.as_tensor(d), eg.as_tensor(out_w)
    factors = [(eg.as_tensor(w), eg.as_tensor(b)) for w, b in factors]

    def factor_values():
        fs = []
        for w, b in factors:
            f = w.data @ d.data
            f += b.data
            fs.append(f)
        return fs

    fs = factor_values()
    v = fs[0]
    for f in fs[1:]:
        v *= f

    def vjp(g):
        fs = factor_values()
        # prefix[p] = f_0 * ... * f_p, the composition's running products
        prefix = [fs[0]]
        for f in fs[1:]:
            prefix.append(prefix[-1] * f)
        g_out = g @ prefix[-1].T if out_w.requires_grad else None
        gv = out_w.data.T @ g
        g_fs = [None] * len(fs)
        for p in range(len(fs) - 1, 0, -1):
            g_fs[p] = prefix[p - 1] * gv
            gv = fs[p] * gv
        g_fs[0] = gv
        g_d = None
        if d.requires_grad:
            g_d = factors[0][0].data.T @ g_fs[0]
            for (w, _), g_f in zip(factors[1:], g_fs[1:]):
                g_d += w.data.T @ g_f
        grads = [g_d]
        for (w, b), g_f in zip(factors, g_fs):
            grads.append(g_f @ d.data.T if w.requires_grad else None)
            grads.append(eg._unbroadcast(g_f, b.data.shape) if b.requires_grad else None)
        return (*grads, g_out)

    parents = (d, *(t for pair in factors for t in pair), out_w)
    return eg._node(out_w.data @ v, parents, vjp)


def quadratic_form(d, form) -> Tensor:
    """sum_i d_i (Q_c d)_i + L_c d per channel c, for the features d (S,
    columns) and a folded Pi-block form (c_in, S+1, S) holding Q_c in its
    first S rows and L_c in its last (model._pi_form), as one tape node.

    The forward runs model._stage's numpy ops in their order; the pullback
    differentiates each channel's form on its own."""
    d, form = eg.as_tensor(d), eg.as_tensor(form)
    c_in, s1, s = form.shape
    t = (form.data.reshape(c_in * s1, s) @ d.data).reshape(c_in, s1, -1)
    t[:, :s] *= d.data

    def vjp(g):
        g_d = np.zeros_like(d.data)
        g_form = np.empty(form.shape)
        for c in range(c_in):
            q, l = form.data[c, :s], form.data[c, s]
            g_d += g[c] * ((q + q.T) @ d.data) + np.outer(l, g[c])
            g_form[c, :s] = (d.data * g[c]) @ d.data.T
            g_form[c, s] = d.data @ g[c]
        return g_d, g_form

    return eg._node(t.sum(axis=1), (d, form), vjp)


def op_by_op_step(u, maps, cfg, grid) -> Tensor:
    """model._step as a composition of tape ops, one node per op: the
    reference for the step node's loss, gradients and rollouts."""
    dt = cfg.dt_model
    mask = Tensor(maps.mask)

    def rhs_hat(xh):
        z = eg.mul(eg.reshape(xh, (cfg.c_in, 1) + xh.shape[1:]), maps.table)
        d = eg.reshape(irfftn(z, grid.axes, grid.points), (cfg.slb_channels, -1))
        if maps.factors is None:
            mixed, bias = quadratic_form(d, maps.form), maps.bias
        else:
            pi, pi_out, bias = maps.factors
            mixed = affine_product(d, pi, pi_out)
        nonlinear = eg.add(mixed, bias)
        out = rfftn(eg.reshape(nonlinear, xh.shape[:2] + grid.points), grid.axes)
        out = eg.mul(out, mask)
        if maps.linear is None:
            return out
        linear = eg.matmul(maps.linear, eg.reshape(z, (cfg.slb_channels, -1)))
        return eg.add(eg.reshape(linear, xh.shape), out)

    uh = rfftn(u, grid.axes)
    if cfg.euler_time:
        incr = eg.mul(rhs_hat(uh), dt)
    else:
        k1 = rhs_hat(uh)
        k2 = rhs_hat(eg.add(uh, eg.mul(k1, 0.5 * dt)))
        k3 = rhs_hat(eg.add(uh, eg.mul(k2, 0.5 * dt)))
        k4 = rhs_hat(eg.add(uh, eg.mul(k3, dt)))
        # sum_i b_i k_i, in the step's order
        incr = eg.mul(k1, dt / 6.0)
        for k, b in ((k2, dt / 3.0), (k3, dt / 3.0), (k4, dt / 6.0)):
            incr = eg.add(incr, eg.mul(k, b))
    return eg.add(u, irfftn(incr, grid.axes, grid.points))


def op_by_op_mlp(h0, layers) -> Tensor:
    """The Freq2Vec MLP with layers [(w, b)] of the normalized modes h0
    (M, dim) as psi (K, M), composed of tape ops, one node per op."""
    h = Tensor(h0)
    for i, (w, b) in enumerate(layers):
        h = eg.add(eg.matmul(h, w), b)
        if i < len(layers) - 1:
            h = eg.mul(h, h)
    K = layers[-1][0].shape[1] // 2
    return transpose(eg.to_complex(h[:, :K], h[:, K:]), (1, 0))


def op_by_op_freq2vec(layers, freq_norm, grid) -> Tensor:
    """freq2vec.polynomial_table as the MLP evaluated at every half-spectrum
    mode k and at its wrapped negation -k, then (psi(k) + conj psi(-k)) / 2,
    composed of tape ops: the reference for the node's table and gradients."""
    n = math.prod(grid.half_points)
    index = freq_grid(grid).index.reshape(grid.dim, n)
    points = np.array(grid.points)[:, None]
    modes = np.concatenate([index, np.where(index == -(points // 2), index, -index)], axis=1)
    psi = op_by_op_mlp(np.ascontiguousarray(modes.T) / np.array(freq_norm), layers)
    table = eg.mul(eg.add(psi[:, :n], eg.conj(psi[:, n:])), 0.5)
    return eg.reshape(table, (psi.shape[0],) + grid.half_points)


def op_by_op_squared_error(state, target) -> Tensor:
    """training._squared_error as a composition of tape ops."""
    diff = sub(state, Tensor(target))
    return mean_all(eg.mul(diff, diff))


def tape_bytes(roots) -> int:
    """The bytes of the values that the nodes under roots keep, leaves aside."""
    nodes = {id(n): n for r in roots for n in eg._toposort(r) if n._parents}
    return sum(n.data.nbytes for n in nodes.values())


def held_arrays(roots) -> list:
    """The values of the nodes under roots, leaves aside, and every array
    that their pullbacks keep."""
    def arrays(x):
        if isinstance(x, np.ndarray):
            return [x]
        if isinstance(x, (list, tuple)):
            return [a for item in x for a in arrays(item)]
        return []

    nodes = {id(n): n for r in roots for n in eg._toposort(r) if n._parents}
    return [a for n in nodes.values()
            for a in [n.data] + arrays([c.cell_contents for c in n._vjp.__closure__ or ()])]


def fd_check(build, params, h=1e-6, tol=1e-6):
    """Central-difference check of d(loss)/d(param) for every coordinate."""
    loss = build()
    loss.backward()
    for p in params:
        an = p.grad.copy()
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(build().data)
            flat[i] = orig - h
            lm = float(build().data)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert an.ravel()[i] == pytest.approx(fd, rel=tol, abs=1e-9)


class TestBasicOps:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4,)))
        fd_check(lambda: sum_all(eg.mul(eg.add(a, b), eg.add(a, b))), [a, b])

    def test_matmul_chain(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((5, 3)))
        w = parameter(rng.standard_normal((3, 2)))
        b = parameter(rng.standard_normal((2,)))
        fd_check(lambda: sum_all(eg.mul(h := eg.add(eg.matmul(x, w), b), h)), [w, b])

    def test_reshape_transpose_getitem(self):
        rng = np.random.default_rng(3)
        a = parameter(rng.standard_normal((2, 6)))

        def build():
            t = transpose(eg.reshape(a, (3, 4)), (1, 0))
            return sum_all(eg.mul(t[1:3, :], t[1:3, :]))

        fd_check(build, [a])

    def test_getitem_repeated_index_accumulates(self):
        # every occurrence of a repeated fancy index contributes its cotangent
        x = parameter(np.arange(4.0))
        sum_all(x[np.array([1, 1, 2])]).backward()
        assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])
        rng = np.random.default_rng(11)
        a = parameter(rng.standard_normal((3, 5)))
        idx = (slice(None), np.array([4, 0, 4, 2, 0, 4]))
        w = Tensor(rng.standard_normal((3, 6)))
        fd_check(lambda: sum_all(eg.mul(eg.mul(a[idx], a[idx]), w)), [a])

    def test_fanout_accumulation(self):
        x = parameter(np.array([1.5]))
        y = eg.mul(x, x)         # x^2
        z = eg.add(eg.mul(y, x), y)  # x^3 + x^2
        z.backward()
        assert x.grad[0] == pytest.approx(3 * 1.5**2 + 2 * 1.5, rel=1e-12)

    def test_mean_all(self):
        x = parameter(np.ones((2, 3)))
        mean_all(eg.mul(x, x)).backward()
        assert x.grad == pytest.approx(np.full((2, 3), 2.0 / 6.0))


class TestAffineProduct:
    """out_w @ prod_p (w_p @ d + b_p) as one node that recomputes its factors."""

    @pytest.mark.parametrize("n_factors", [1, 2])
    def test_gradients_match_finite_differences(self, n_factors):
        rng = np.random.default_rng(12 + n_factors)
        d = parameter(rng.standard_normal((4, 7)))
        factors = [(parameter(rng.standard_normal((3, 4))), parameter(rng.standard_normal((3, 1))))
                   for _ in range(n_factors)]
        out_w = parameter(rng.standard_normal((2, 3)))
        weight = Tensor(rng.standard_normal((2, 7)))

        def build():
            y = eg.mul(affine_product(d, factors, out_w), weight)
            return sum_all(eg.mul(y, y))

        fd_check(build, [d, *(t for pair in factors for t in pair), out_w])


class TestPiForm:
    """model._pi_form, the Pi-block folded with its output columns into a
    quadratic form over the features, one tape node, evaluated by the
    reference node quadratic_form."""

    @pytest.mark.parametrize("c_in", [1, 2])
    def test_gradients_match_finite_differences(self, c_in):
        rng = np.random.default_rng(30 + c_in)
        s, C = 3 * c_in, 4
        d = parameter(rng.standard_normal((s, 7)))
        pi = [(parameter(rng.standard_normal((C, s))), parameter(rng.standard_normal((C, 1))))
              for _ in range(2)]
        pi_out = parameter(rng.standard_normal((c_in, C)))
        weight = Tensor(rng.standard_normal((c_in, 7)))
        (_, b0), (_, b1) = pi
        assert np.all(np.abs(b0.data) > 0) and np.all(np.abs(b1.data) > 0)

        def build():
            # linear in the node's value, so that the weight is its cotangent
            return sum_all(eg.mul(quadratic_form(d, sino_model._pi_form(pi, pi_out)), weight))

        fd_check(build, [d, *(t for pair in pi for t in pair), pi_out])
        # the form plus its constant term pi_out (b0 b1) is the Pi-block
        form = sino_model._pi_form(pi, pi_out)
        folded = quadratic_form(d, form).data + pi_out.data @ (b0.data * b1.data)
        ref = affine_product(d, pi, pi_out).data
        assert np.linalg.norm(folded - ref) <= 1e-14 * np.linalg.norm(ref)


class TestStepNode:
    """model._step, one tape node with a hand-written pullback, against the
    same step composed of tape ops (op_by_op_step)."""

    @pytest.mark.parametrize("flag", ["full", "no_pi", "no_filter", "no_freq2vec", "no_linear",
                                      "euler_time"])
    @pytest.mark.parametrize("preset, frames", [("E6-desk", 9), ("E7-desk", 4)], ids=["2d", "3d"])
    def test_loss_gradients_and_rollout_equal_the_op_by_op_step(self, preset, frames, flag,
                                                                monkeypatch):
        # the forward runs the same numpy ops in the same order, so losses
        # and rollouts are the same bits; the pullback sums in another order
        case = presets()[preset]
        g = case.train_grid
        cfg = case.model if flag == "full" else replace(case.model, **{flag: True})
        solver = replace(case.solver, t_end=(frames - 1) * case.solver.save_dt)
        segment = integrate(case.pde, solver, g, sample_ic(case.pde, g, 0, 0, case.grf))
        rng = np.random.default_rng(14)
        params = {k: v + 0.1 * rng.standard_normal(v.shape)
                  for k, v in sino_model.init_params(cfg, 15).items()}
        u0 = np.stack(segment[:2])

        def run():
            loss, grads = training.backward(params, cfg, g, segment)
            return loss, grads, sino_model.rollout(u0, params, cfg, g, 3)

        loss, grads, states = run()
        monkeypatch.setattr(sino_model, "_step", op_by_op_step)
        ref_loss, ref_grads, ref_states = run()
        assert len(segment) == frames and sorted(grads) == sorted(ref_grads) == sorted(params)
        assert loss == ref_loss
        assert np.array_equal(states, ref_states)
        for name, grad in grads.items():
            ref = ref_grads[name]
            assert np.linalg.norm(grad - ref) <= 1e-13 * np.linalg.norm(ref), name

    def test_a_window_records_one_node_per_step(self):
        # each further step of a window adds three nodes: its step, its
        # loss term and the add that sums the terms
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        rng = np.random.default_rng(16)
        segment = rng.standard_normal((9, cfg.c_in) + g.points)
        params = sino_model.init_params(cfg, 17)
        counts = [len(eg._toposort(training._rollout_loss_graph(
            sino_model._wrap_params(params, True), cfg, g, segment[:frames])))
            for frames in (2, 9)]
        assert counts[1] - counts[0] == 3 * 7


class TestFreq2VecAndLossNodes:
    """freq2vec.polynomial_table and training._squared_error, one tape node
    each, against the same functions composed of tape ops."""

    @pytest.mark.parametrize("preset, frames", [("E6-desk", 9), ("E7-desk", 4)], ids=["2d", "3d"])
    def test_loss_and_gradients_equal_the_op_by_op_nodes(self, preset, frames, monkeypatch):
        # the node sums the table in another order than the MLP, so the
        # table and the loss agree to roundoff, not bit for bit
        case = presets()[preset]
        cfg, g = case.model, case.train_grid
        rng = np.random.default_rng(18)
        params = {k: v + 0.1 * rng.standard_normal(v.shape)
                  for k, v in sino_model.init_params(cfg, 19).items()}
        segment = 0.5 * rng.standard_normal((frames, cfg.c_in) + g.points)
        table = sino_model.freq2vec_eval(params, cfg, g)
        loss, grads = training.backward(params, cfg, g, segment)
        monkeypatch.setattr(freq2vec, "polynomial_table", op_by_op_freq2vec)
        monkeypatch.setattr(training, "_squared_error", op_by_op_squared_error)
        ref_table = sino_model.freq2vec_eval(params, cfg, g)
        ref_loss, ref_grads = training.backward(params, cfg, g, segment)
        assert np.linalg.norm(table - ref_table) <= 1e-14 * np.linalg.norm(ref_table)
        assert abs(loss - ref_loss) <= 1e-14 * abs(ref_loss)
        for name, grad in grads.items():
            ref = ref_grads[name]
            assert np.linalg.norm(grad - ref) <= 1e-13 * np.linalg.norm(ref), name

    def test_the_maps_tape_keeps_no_activations(self, monkeypatch):
        # the Freq2Vec node keeps the weights and recomputes the coefficients
        # in its pullback: no value on the maps' tape but the table, and
        # nothing that their pullbacks keep, has an axis over the modes,
        # flat or on the half spectrum
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        params = sino_model.init_params(cfg, 20)
        n = math.prod(g.half_points)

        def maps_arrays():
            maps = sino_model._rhs_maps(sino_model._wrap_params(params, True), cfg, g)
            per_mode = [a.shape for a in held_arrays(maps.tensors)
                        if ({n, 2 * n} & set(a.shape) or a.shape[-g.dim:] == g.half_points)
                        and not np.shares_memory(a, maps.table.data)]
            return tape_bytes(maps.tensors), per_mode

        held, per_mode = maps_arrays()
        assert not per_mode
        monkeypatch.setattr(freq2vec, "polynomial_table", op_by_op_freq2vec)
        ref_held, ref_per_mode = maps_arrays()
        assert (2 * n, cfg.mlp_hidden[-1]) in ref_per_mode
        assert held < 0.5e6 < 3e6 < ref_held


class TestComplexOps:
    def test_complex_multiply_adjoint(self):
        rng = np.random.default_rng(4)
        re = parameter(rng.standard_normal(6))
        im = parameter(rng.standard_normal(6))
        const = Tensor(rng.standard_normal(6) + 1j * rng.standard_normal(6))

        def build():
            z = eg.mul(eg.to_complex(re, im), const)
            return sum_all(eg.mul(real(z), real(z)))

        fd_check(build, [re, im])

    def test_conj_and_flip(self):
        # the Freq2Vec symmetrization: (z(k) + conj z(-k)) / 2, with the mode
        # reversal k -> -k (mod N) taken as a gather that repeats entries
        rng = np.random.default_rng(5)
        re = parameter(rng.standard_normal((2, 6)))
        im = parameter(rng.standard_normal((2, 6)))
        neg = -np.arange(6) % 6
        w = Tensor(rng.standard_normal((2, 6)))

        def build():
            z = eg.to_complex(re, im)
            both = z[:, np.concatenate([np.arange(6), neg])]
            sym = eg.mul(eg.add(both[:, :6], eg.conj(both[:, 6:])), 0.5)
            r = real(eg.mul(sym, w))
            return sum_all(eg.mul(r, r))

        fd_check(build, [re, im])

    def test_fft_roundtrip_gradient(self):
        rng = np.random.default_rng(6)
        u = parameter(rng.standard_normal((2, 4, 4)))
        mult = Tensor(np.exp(1j * rng.standard_normal((4, 3))))

        def build():
            back = irfftn(eg.mul(rfftn(u, (1, 2)), mult), (1, 2), (4, 4))
            return sum_all(eg.mul(back, back))

        fd_check(build, [u])

    def test_fft_adjoint_identity(self):
        # Re <rfftn(x), y> is linear in x: its gradient is the adjoint applied to y
        rng = np.random.default_rng(7)
        x = parameter(rng.standard_normal((1, 4, 4)))
        y = Tensor(rng.standard_normal((1, 4, 3)) + 1j * rng.standard_normal((1, 4, 3)))

        def build():
            z = eg.mul(rfftn(x, (1, 2)), eg.conj(y))
            return sum_all(real(z))

        fd_check(build, [x])


class TestHalfSpectrumOps:
    # last axis of even length 6: mode 3 is the Nyquist column, which the
    # random inputs and weights load like every other column
    CASES = [((2, 4, 6), (1, 2)), ((1, 4, 2, 6), (1, 2, 3))]

    @pytest.mark.parametrize("shape, axes", CASES)
    def test_rfftn_gradient(self, shape, axes):
        rng = np.random.default_rng(8)
        x = parameter(rng.standard_normal(shape))
        half = np.fft.rfftn(x.data, axes=axes).shape
        y = Tensor(rng.standard_normal(half) + 1j * rng.standard_normal(half))
        assert np.abs(np.fft.rfftn(x.data, axes=axes)[..., -1]).min() > 0

        def build():
            w = real(eg.mul(rfftn(x, axes), y))
            return sum_all(eg.mul(w, w))

        fd_check(build, [x])

    @pytest.mark.parametrize("shape, axes", CASES)
    def test_irfftn_gradient(self, shape, axes):
        # a general half spectrum, not Hermitian in its edge columns:
        # irfftn projects those, and the pullback must follow the projection
        rng = np.random.default_rng(9)
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        re = parameter(rng.standard_normal(half))
        im = parameter(rng.standard_normal(half))
        w = Tensor(rng.standard_normal(shape))
        s = tuple(shape[ax] for ax in axes)

        def build():
            u = irfftn(eg.to_complex(re, im), axes, s)
            return sum_all(eg.mul(eg.mul(u, u), w))

        fd_check(build, [re, im])

    @pytest.mark.parametrize("shape, axes", CASES)
    def test_match_full_fft_ops(self, shape, axes):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(shape)
        full = np.fft.fftn(x, axes=axes)
        half = rfftn(Tensor(x), axes).data
        assert np.allclose(half, full[..., : shape[-1] // 2 + 1], rtol=0, atol=1e-12)
        back = irfftn(Tensor(half), axes, tuple(shape[ax] for ax in axes)).data
        assert np.allclose(back, np.fft.ifftn(full, axes=axes).real, rtol=0, atol=1e-13)


class TestGraphMechanics:
    def test_constants_get_no_gradient(self):
        x = parameter(np.ones(3))
        c = Tensor(np.full(3, 2.0))
        sum_all(eg.mul(x, c)).backward()
        assert c.grad is None
        assert x.grad == pytest.approx(np.full(3, 2.0))

    def test_seeded_backward_scales_gradients(self):
        x = parameter(np.array([3.0]))
        l1 = sum_all(eg.mul(x, x))
        l1.backward()
        g1 = x.grad.copy()
        x.grad = None
        l2 = sum_all(eg.mul(x, x))
        l2.backward(seed=np.array(2.0))
        assert x.grad == pytest.approx(2.0 * g1)

    def test_deep_chain_iterative_toposort(self):
        # long graphs must not hit the recursion limit
        x = parameter(np.array([1.0]))
        y = x
        for _ in range(3000):
            y = eg.add(y, x)
        sum_all(y).backward()
        assert x.grad[0] == pytest.approx(3001.0)
