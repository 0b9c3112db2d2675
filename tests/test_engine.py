import numpy as np
import pytest

from sino import engine as eg
from sino.engine import Tensor


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def real(a) -> Tensor:
    """The real part of a complex tensor, as a tape op."""
    a = eg.as_tensor(a)

    def vjp(g):
        return (g.astype(np.complex128),)

    return eg._node(np.ascontiguousarray(a.data.real), (a,), vjp)


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
        fd_check(lambda: eg.sum_all(eg.mul(eg.add(a, b), eg.add(a, b))), [a, b])

    def test_matmul_chain(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((5, 3)))
        w = parameter(rng.standard_normal((3, 2)))
        b = parameter(rng.standard_normal((2,)))
        fd_check(lambda: eg.sum_all(eg.mul(h := eg.add(eg.matmul(x, w), b), h)), [w, b])

    def test_reshape_transpose_getitem(self):
        rng = np.random.default_rng(3)
        a = parameter(rng.standard_normal((2, 6)))

        def build():
            t = eg.transpose(eg.reshape(a, (3, 4)), (1, 0))
            return eg.sum_all(eg.mul(t[1:3, :], t[1:3, :]))

        fd_check(build, [a])

    def test_getitem_repeated_index_accumulates(self):
        # every occurrence of a repeated fancy index contributes its cotangent
        x = parameter(np.arange(4.0))
        eg.sum_all(x[np.array([1, 1, 2])]).backward()
        assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])
        rng = np.random.default_rng(11)
        a = parameter(rng.standard_normal((3, 5)))
        idx = (slice(None), np.array([4, 0, 4, 2, 0, 4]))
        w = Tensor(rng.standard_normal((3, 6)))
        fd_check(lambda: eg.sum_all(eg.mul(eg.mul(a[idx], a[idx]), w)), [a])

    def test_fanout_accumulation(self):
        x = parameter(np.array([1.5]))
        y = eg.mul(x, x)         # x^2
        z = eg.add(eg.mul(y, x), y)  # x^3 + x^2
        z.backward()
        assert x.grad[0] == pytest.approx(3 * 1.5**2 + 2 * 1.5, rel=1e-12)

    def test_mean_all(self):
        x = parameter(np.ones((2, 3)))
        eg.mean_all(eg.mul(x, x)).backward()
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
            y = eg.mul(eg.affine_product(d, factors, out_w), weight)
            return eg.sum_all(eg.mul(y, y))

        fd_check(build, [d, *(t for pair in factors for t in pair), out_w])

    @pytest.mark.parametrize("flag", ["full", "no_pi", "no_filter", "no_freq2vec", "no_linear",
                                      "euler_time"])
    def test_training_gradients_equal_the_composed_ops(self, flag, monkeypatch):
        # the loss and every gradient of a 9-frame E6-desk window are the
        # bits the composition of matmul, add and mul gives
        from dataclasses import replace

        from sino import training
        from sino.config import presets
        from sino.model import init_params
        from sino.solvers import integrate, sample_ic

        case = presets()["E6-desk"]
        g = case.train_grid
        cfg = case.model if flag == "full" else replace(case.model, **{flag: True})
        solver = replace(case.solver, t_end=8 * case.solver.save_dt)
        segment = integrate(case.pde, solver, g, sample_ic(case.pde, g, 0, 0, case.grf))
        rng = np.random.default_rng(14)
        params = {k: v + 0.1 * rng.standard_normal(v.shape)
                  for k, v in init_params(cfg, 15).items()}
        loss, grads = training.backward(params, cfg, g, segment)

        def composed(d, factors, out_w):
            w, b = factors[0]
            v = eg.add(eg.matmul(w, d), b)
            for w, b in factors[1:]:
                v = eg.mul(v, eg.add(eg.matmul(w, d), b))
            return eg.matmul(out_w, v)

        monkeypatch.setattr(eg, "affine_product", composed)
        ref_loss, ref_grads = training.backward(params, cfg, g, segment)
        assert len(segment) == 9 and len(grads) == (14 if flag == "full" else len(params))
        assert loss == ref_loss
        assert sorted(grads) == sorted(ref_grads)
        for name, grad in grads.items():
            assert np.array_equal(grad, ref_grads[name]), name


class TestComplexOps:
    def test_complex_multiply_adjoint(self):
        rng = np.random.default_rng(4)
        re = parameter(rng.standard_normal(6))
        im = parameter(rng.standard_normal(6))
        const = Tensor(rng.standard_normal(6) + 1j * rng.standard_normal(6))

        def build():
            z = eg.mul(eg.to_complex(re, im), const)
            return eg.sum_all(eg.mul(real(z), real(z)))

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
            return eg.sum_all(eg.mul(r, r))

        fd_check(build, [re, im])

    def test_fft_roundtrip_gradient(self):
        rng = np.random.default_rng(6)
        u = parameter(rng.standard_normal((2, 4, 4)))
        mult = Tensor(np.exp(1j * rng.standard_normal((4, 3))))

        def build():
            back = eg.irfftn(eg.mul(eg.rfftn(u, (1, 2)), mult), (1, 2), (4, 4))
            return eg.sum_all(eg.mul(back, back))

        fd_check(build, [u])

    def test_fft_adjoint_identity(self):
        # Re <rfftn(x), y> is linear in x: its gradient is the adjoint applied to y
        rng = np.random.default_rng(7)
        x = parameter(rng.standard_normal((1, 4, 4)))
        y = Tensor(rng.standard_normal((1, 4, 3)) + 1j * rng.standard_normal((1, 4, 3)))

        def build():
            z = eg.mul(eg.rfftn(x, (1, 2)), eg.conj(y))
            return eg.sum_all(real(z))

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
            w = real(eg.mul(eg.rfftn(x, axes), y))
            return eg.sum_all(eg.mul(w, w))

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
            u = eg.irfftn(eg.to_complex(re, im), axes, s)
            return eg.sum_all(eg.mul(eg.mul(u, u), w))

        fd_check(build, [re, im])

    @pytest.mark.parametrize("shape, axes", CASES)
    def test_match_full_fft_ops(self, shape, axes):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(shape)
        full = np.fft.fftn(x, axes=axes)
        half = eg.rfftn(Tensor(x), axes).data
        assert np.allclose(half, full[..., : shape[-1] // 2 + 1], rtol=0, atol=1e-12)
        back = eg.irfftn(Tensor(half), axes, tuple(shape[ax] for ax in axes)).data
        assert np.allclose(back, np.fft.ifftn(full, axes=axes).real, rtol=0, atol=1e-13)


class TestGraphMechanics:
    def test_constants_get_no_gradient(self):
        x = parameter(np.ones(3))
        c = Tensor(np.full(3, 2.0))
        eg.sum_all(eg.mul(x, c)).backward()
        assert c.grad is None
        assert x.grad == pytest.approx(np.full(3, 2.0))

    def test_seeded_backward_scales_gradients(self):
        x = parameter(np.array([3.0]))
        l1 = eg.sum_all(eg.mul(x, x))
        l1.backward()
        g1 = x.grad.copy()
        x.grad = None
        l2 = eg.sum_all(eg.mul(x, x))
        l2.backward(seed=np.array(2.0))
        assert x.grad == pytest.approx(2.0 * g1)

    def test_deep_chain_iterative_toposort(self):
        # long graphs must not hit the recursion limit
        x = parameter(np.array([1.0]))
        y = x
        for _ in range(3000):
            y = eg.add(y, x)
        eg.sum_all(y).backward()
        assert x.grad[0] == pytest.approx(3001.0)
