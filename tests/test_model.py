import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from sino.config import presets
from sino.freq2vec import polynomial_table
from sino.model import (
    ABLATION_FLAGS,
    ModelConfig,
    _param_shapes,
    _wrap_params,
    config_for_grid,
    exact_burgers_params,
    freq2vec_eval,
    init_params,
    model_step,
    pi_block,
    rhs_eval,
    rollout,
    slb_apply,
)
from sino.solvers import PDESpec, SolverConfig, integrate
from sino.spectral import (
    GridSpec,
    forward_transform,
    freq_grid,
    inverse_transform,
    spectral_resample,
    two_thirds_mask,
)

TWO_PI = 2.0 * math.pi


def grid2(n=16, length=TWO_PI):
    return GridSpec(points=(n, n), length=(length, length))


def bandlimited(grid, seed, cutoff, channels=1):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((channels,) + grid.points)
    fg = freq_grid(grid)
    keep = (np.max(np.abs(fg.index), axis=0) <= cutoff).astype(float)
    return inverse_transform(forward_transform(f, grid) * keep, grid)


def small_cfg(grid, **kw):
    defaults = dict(c_in=1, K=3, C=4, dt_model=0.01, mlp_hidden=(8, 8))
    defaults.update(kw)
    return config_for_grid(grid, **defaults)


def n_params(cfg):
    return sum(v.size for v in init_params(cfg, 0).values())


class TestParams:
    def test_init_deterministic(self):
        cfg = small_cfg(grid2())
        a, b = init_params(cfg, 7), init_params(cfg, 7)
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = init_params(cfg, 8)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_count_matches_shape_algebra(self):
        # independent shape count: MLP 2->64->64->16, three 1x1 maps, out map
        cfg = ModelConfig(c_in=1, K=8, C=64, dt_model=0.01, freq_norm=(8, 8),
                          mlp_hidden=(64, 64))
        mlp = (2 * 64 + 64) + (64 * 64 + 64) + (64 * 16 + 16)
        maps = 2 * (64 * 8 + 64) + (64 * 8 + 64) + (1 * 128 + 1)
        assert n_params(cfg) == mlp + maps

    def test_count_monotone_in_C_and_K(self):
        base = dict(c_in=2, dt_model=0.01, freq_norm=(8, 8))
        for a, b in (((4, 16), (4, 32)), ((4, 16), (8, 16))):
            lo = ModelConfig(K=a[0], C=a[1], **base)
            hi = ModelConfig(K=b[0], C=b[1], **base)
            assert n_params(hi) > n_params(lo)

    def test_ablations_change_param_set(self):
        g = grid2()
        assert "linear.w" not in init_params(small_cfg(g, no_linear=True), 0)
        assert "pi.1.w" not in init_params(small_cfg(g, no_pi=True), 0)
        assert "freq2vec.table" in init_params(small_cfg(g, no_freq2vec=True), 0)
        assert "freq2vec.w0" not in init_params(small_cfg(g, no_freq2vec=True), 0)

    @pytest.mark.parametrize("grid", [grid2(), GridSpec(points=(8, 8, 8), length=(TWO_PI,) * 3)])
    def test_exact_burgers_params_fill_the_parameter_table(self, grid):
        cfg, params = exact_burgers_params(grid, nu=0.01, dt_model=5e-3)
        assert [(k, v.shape) for k, v in params.items()] == list(_param_shapes(cfg).items())


# SHA-256 of each preset's init_params at its train.seed, over the full model
# and each ablation variant: a layout or init edit updates them on purpose
PINNED_INITS = {
    "E1": "4a953ed7128a4f1dbb297243f084216394ef5b83dae0e6d97404fae27749d840",
    "E6": "827da193f21505a10c560560ab4d2e8a7b5cd7c7886d1637dc001ffbbb5f2c4b",
    "E7": "2104a2532d9e8e974617a4cdf6daff1bd249f34b7c2594ae33c0256eeab59ab7",
    "E1-desk": "1bb92b6ed95dca941daead0cb868e3274c545b36f380053ec30952eb3ba27830",
    "E6-desk": "264392906c38b23309768bd7f202375a621ad5712911dae1d7ec6e69db370fe1",
    "E7-desk": "53d8129668a7b0a33e7db8a73696fbe6282cb5c97e83ec9a2a02918289f92b1d",
    "E2": "ca092d809c10d07583a1ed9bdb3ac778b77ec795629b80149f7f6dc6b0dc184b",
    "E3": "ca092d809c10d07583a1ed9bdb3ac778b77ec795629b80149f7f6dc6b0dc184b",
    "E4": "ca092d809c10d07583a1ed9bdb3ac778b77ec795629b80149f7f6dc6b0dc184b",
    "E5": "ca092d809c10d07583a1ed9bdb3ac778b77ec795629b80149f7f6dc6b0dc184b",
    "E2-desk": "1bb92b6ed95dca941daead0cb868e3274c545b36f380053ec30952eb3ba27830",
    "E3-desk": "1bb92b6ed95dca941daead0cb868e3274c545b36f380053ec30952eb3ba27830",
    "E4-desk": "1bb92b6ed95dca941daead0cb868e3274c545b36f380053ec30952eb3ba27830",
    "E5-desk": "1bb92b6ed95dca941daead0cb868e3274c545b36f380053ec30952eb3ba27830",
}


def init_digest(model_cfg, seed):
    h = hashlib.sha256()
    for variant in ("full",) + ABLATION_FLAGS:
        cfg = model_cfg if variant == "full" else replace(model_cfg, **{variant: True})
        for name, value in init_params(cfg, seed).items():
            h.update(f"{variant} {name} {value.shape}".encode())
            h.update(value.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(PINNED_INITS))
def test_init_params_are_pinned(case):
    c = presets()[case]
    assert init_digest(c.model, c.train.seed) == PINNED_INITS[case]


def test_every_preset_has_a_pinned_init():
    assert list(presets()) == list(PINNED_INITS)


class TestFreq2Vec:
    def test_zero_weight_mlp_constant_table(self):
        g = grid2()
        cfg = small_cfg(g)
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        n_layers = len(cfg.mlp_hidden)
        params[f"freq2vec.b{n_layers}"][:] = np.r_[1.0, 2.0, 3.0, 0.0, 0.0, 0.0]
        table = freq2vec_eval(params, cfg, g)
        for j, val in enumerate((1.0, 2.0, 3.0)):
            assert np.allclose(table[j], val)

    def test_symmetrized_table_gives_real_output(self):
        g = grid2()
        cfg = small_cfg(g)
        params = init_params(cfg, 3)
        table = freq2vec_eval(params, cfg, g)
        assert table.shape == (cfg.K,) + g.half_points
        # the edge columns hold both k and -k: there the table is Hermitian
        edges = table[..., [0, -1]]
        mirrored = np.roll(np.flip(edges, axis=1), shift=1, axis=1)
        assert np.max(np.abs(edges - np.conj(mirrored))) < 1e-12
        u = bandlimited(g, 0, cutoff=7)
        out = slb_apply(u, table, cfg, g)
        assert out.shape == (cfg.slb_channels,) + g.points and np.isrealobj(out)

    def test_free_table_resolution_bound(self):
        g = grid2(16)
        cfg = small_cfg(g, no_freq2vec=True)
        params = init_params(cfg, 1)
        from sino.errors import IncompatibleDomain
        with pytest.raises(IncompatibleDomain):
            freq2vec_eval(params, cfg, grid2(32))


def mlp_table(params, cfg, grid):
    """The Freq2Vec table as its MLP evaluates it: psi at every half-spectrum
    mode k and at its wrapped negation -k, then (psi(k) + conj psi(-k)) / 2."""
    index = freq_grid(grid).index.reshape(grid.dim, -1)
    points = np.array(grid.points)[:, None]
    negated = np.where(index == -(points // 2), index, -index)

    def psi(modes):
        h = modes.T / np.array(cfg.freq_norm)
        depth = len(cfg.mlp_hidden)
        for i in range(depth + 1):
            h = h @ params[f"freq2vec.w{i}"] + params[f"freq2vec.b{i}"]
            if i < depth:
                h = h * h
        return h[:, : cfg.K] + 1j * h[:, cfg.K :]

    table = (psi(index) + np.conj(psi(negated))) * 0.5
    return np.ascontiguousarray(table.T).reshape((cfg.K,) + grid.half_points)


def perturbed_params(cfg, seed):
    rng = np.random.default_rng(seed)
    return {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in init_params(cfg, seed).items()}


def grid_of(dim, n, length=TWO_PI):
    return GridSpec(points=(n,) * dim, length=(length,) * dim)


class TestFreq2VecPolynomial:
    """The Freq2Vec node evaluates the MLP as the polynomial it computes."""

    @pytest.mark.parametrize("hidden", [(), (6,), (7, 5), (5, 4, 3)],
                             ids=["deg1", "deg2", "deg4", "deg8"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fine", [1, 2], ids=["native", "x2"])
    def test_table_equals_the_mlp(self, hidden, dim, fine):
        cfg = config_for_grid(grid_of(dim, 8, 5.0), c_in=1, K=3, C=4, dt_model=0.1,
                              mlp_hidden=hidden)
        g = grid_of(dim, 8 * fine, 5.0)
        params = perturbed_params(cfg, 2 + len(hidden))
        ref = mlp_table(params, cfg, g)
        assert np.linalg.norm(freq2vec_eval(params, cfg, g) - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_matches_finite_differences(self, dim):
        g = grid_of(dim, 8, 5.0)
        cfg = config_for_grid(g, c_in=1, K=2, C=4, dt_model=0.1, mlp_hidden=(3, 2))
        params = perturbed_params(cfg, 7)
        rng = np.random.default_rng(8)
        weight = rng.standard_normal((cfg.K,) + g.half_points) \
            + 1j * rng.standard_normal((cfg.K,) + g.half_points)

        def loss(p):
            t = freq2vec_eval(p, cfg, g)
            return np.sum(t.real * weight.real + t.imag * weight.imag)

        pt = _wrap_params(params, True)
        layers = [(pt[f"freq2vec.w{i}"], pt[f"freq2vec.b{i}"]) for i in range(3)]
        # the loss is linear in the table, so weight is its cotangent
        polynomial_table(layers, cfg.freq_norm, g).backward(weight)
        h = 1e-6
        for name, value in params.items():
            if not name.startswith("freq2vec."):
                continue
            fd = np.empty(value.size)
            for i in range(value.size):
                step = np.zeros(value.size)
                step[i] = h
                up = dict(params, **{name: value + step.reshape(value.shape)})
                down = dict(params, **{name: value - step.reshape(value.shape)})
                fd[i] = (loss(up) - loss(down)) / (2 * h)
            assert np.allclose(pt[name].grad.ravel(), fd, rtol=1e-6, atol=1e-8), name

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fine", [1, 2], ids=["native", "x2"])
    def test_exact_burgers_tables_equal_the_mlp_bit_for_bit(self, dim, fine):
        native = grid_of(dim, 16)
        cfg, params = exact_burgers_params(native, 0.01, 0.01)
        g = grid_of(dim, 16 * fine)
        assert np.array_equal(freq2vec_eval(params, cfg, g), mlp_table(params, cfg, g))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_edge_columns_are_exactly_hermitian(self, dim):
        # on the edge columns of the last axis, k and -k both lie in the half
        # spectrum, and the table holds conj t(k) at -k: at every size, since
        # it rests on a summation order that does not depend on the index
        for n in {2: (8, 12, 16, 32, 54), 3: (8, 12, 16)}[dim]:
            cfg = config_for_grid(grid_of(dim, n, 3.0), c_in=1, K=3, C=4, dt_model=0.1)
            for fine in (1, 2):
                g = grid_of(dim, n * fine, 3.0)
                table = freq2vec_eval(perturbed_params(cfg, 9), cfg, g)
                edges = table[..., [0, -1]]
                negate = np.ix_(*[-np.arange(m) % m for m in g.points[:-1]])
                mirrored = edges[(slice(None),) + negate]
                assert np.array_equal(edges, np.conj(mirrored)), (n, fine)

    def test_keeps_nothing_of_the_basis_size(self):
        # the monomials at every mode are built in each call and again in the
        # pullback: what a call leaves held is less than one such array
        import tracemalloc

        from sino.config import presets
        case = presets()["E7-desk"]
        cfg, g = case.model, case.train_grid
        pt = _wrap_params(init_params(cfg, 3), True)
        layers = [(pt[f"freq2vec.w{i}"], pt[f"freq2vec.b{i}"])
                  for i in range(len(cfg.mlp_hidden) + 1)]
        basis_bytes = math.comb(2 ** len(cfg.mlp_hidden) + g.dim, g.dim) \
            * math.prod(g.half_points) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = polynomial_table(layers, cfg.freq_norm, g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table.data.shape == (cfg.K,) + g.half_points
        assert held < basis_bytes


class TestSlbApply:
    def test_unit_table_repeats_input(self):
        g = grid2()
        cfg = small_cfg(g)
        table = np.ones((cfg.K,) + g.half_points, dtype=complex)
        u = bandlimited(g, 1, cutoff=7)
        out = slb_apply(u, table, cfg, g)
        for j in range(cfg.K):
            assert np.max(np.abs(out[j] - u[0])) < 1e-12

    def test_derivative_multiplier_row(self):
        g = grid2(32)
        cfg = small_cfg(g, K=1)
        fg = freq_grid(g)
        table = fg.derivative_multiplier((1, 0))[np.newaxis]
        x = g.coords()
        out = slb_apply(np.sin(x[0])[np.newaxis], table, cfg, g)
        assert np.max(np.abs(out[0] - np.cos(x[0]))) < 1e-12

    def test_rejects_a_full_spectrum_table(self):
        g = grid2()
        cfg = small_cfg(g, K=1)
        with pytest.raises(ValueError, match="table must have shape"):
            slb_apply(bandlimited(g, 1, cutoff=7), np.ones((1,) + g.points, complex), cfg, g)

    def test_channel_order_input_major(self):
        g = grid2()
        cfg = small_cfg(g, c_in=2, K=2)
        table = np.stack([np.ones(g.half_points), 2.0 * np.ones(g.half_points)]).astype(complex)
        u = np.stack([bandlimited(g, 2, 7)[0], bandlimited(g, 3, 7)[0]])
        out = slb_apply(u, table, cfg, g)
        assert np.allclose(out[0], u[0]) and np.allclose(out[1], 2 * u[0])
        assert np.allclose(out[2], u[1]) and np.allclose(out[3], 2 * u[1])

    def test_burgers_slb_channel_is_x_derivative(self):
        g = grid2(32)
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=5e-3)
        u = bandlimited(g, 32, cutoff=10, channels=2)
        d = slb_apply(u, freq2vec_eval(params, cfg, g), cfg, g)
        dx = inverse_transform(
            forward_transform(u[:1], g) * freq_grid(g).derivative_multiplier((1, 0)), g
        )
        # channel 1 is input 0's multiplier 1, i*k_x
        assert np.max(np.abs(d[1] - dx[0])) < 1e-10


class TestPiBlock:
    def test_convection_wiring(self):
        # W1 selects u, W2 selects du/dx: output is u * du/dx
        g = grid2(32)
        cfg = small_cfg(g, c_in=1, K=2, C=1)
        fg = freq_grid(g)
        table = np.stack([np.ones(g.half_points, complex), fg.derivative_multiplier((1, 0))])
        u = bandlimited(g, 4, cutoff=5)
        d = slb_apply(u, table, cfg, g)
        params = {
            "pi.0.w": np.array([[1.0, 0.0]]), "pi.0.b": np.zeros(1),
            "pi.1.w": np.array([[0.0, 1.0]]), "pi.1.b": np.zeros(1),
        }
        out = pi_block(d, params, cfg, g)
        mask = two_thirds_mask(g)
        expected = inverse_transform(forward_transform(d[0:1] * d[1:2], g) * mask, g)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_degenerate_factor_gives_affine(self):
        g = grid2()
        cfg = small_cfg(g, K=2, C=3, no_filter=True)
        rng = np.random.default_rng(5)
        d = rng.standard_normal((cfg.slb_channels,) + g.points)
        w1 = rng.standard_normal((3, cfg.slb_channels))
        b1 = rng.standard_normal(3)
        params = {"pi.0.w": w1, "pi.0.b": b1,
                  "pi.1.w": np.zeros((3, cfg.slb_channels)), "pi.1.b": np.ones(3)}
        out = pi_block(d, params, cfg, g)
        affine = np.tensordot(w1, d, axes=(1, 0)) + b1[:, None, None]
        assert np.max(np.abs(out - affine)) < 1e-12

    def test_post_filter_band_is_empty(self):
        g = grid2(32)
        cfg = small_cfg(g, K=2, C=2)
        params = init_params(cfg, 6)
        d = bandlimited(g, 7, cutoff=10, channels=cfg.slb_channels)
        out = pi_block(d, {k: v for k, v in params.items() if k.startswith("pi.")}, cfg, g)
        mask = two_thirds_mask(g)
        spec = forward_transform(out, g)
        assert np.max(np.abs(spec * (1.0 - mask))) < 1e-9


class TestRhsEval:
    def test_zero_params_zero_rhs(self):
        g = grid2()
        cfg = small_cfg(g)
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        u = bandlimited(g, 8, cutoff=7)
        assert np.max(np.abs(rhs_eval(u, params, cfg, g))) == 0.0

    def test_exact_burgers_construction(self):
        g = grid2(32)
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=5e-3)
        u = bandlimited(g, 9, cutoff=10, channels=2)
        from sino.solvers import burgers_rhs
        assert np.max(np.abs(rhs_eval(u, params, cfg, g) - burgers_rhs(u, g, 0.01))) < 1e-10
        # parameters built on a coarser grid give the same right-hand side
        cfg, params = exact_burgers_params(grid2(16), nu=0.01, dt_model=5e-3)
        assert np.max(np.abs(rhs_eval(u, params, cfg, g) - burgers_rhs(u, g, 0.01))) < 1e-10
        # so do full-band states, the Nyquist rows and columns loaded: the odd
        # multipliers vanish there as FreqGrid.derivative_multiplier's do
        for n in (16, 32):
            u = np.random.default_rng(n).standard_normal((2, n, n))
            err = rhs_eval(u, params, cfg, grid2(n)) - burgers_rhs(u, grid2(n), 0.01)
            assert np.max(np.abs(err)) < 1e-10

    def test_shift_equivariance(self):
        g = grid2()
        cfg = small_cfg(g, c_in=2, K=3, C=4)
        params = init_params(cfg, 10)
        u = bandlimited(g, 11, cutoff=7, channels=2)
        for axis in (1, 2):
            shifted = np.roll(u, 1, axis=axis)
            lhs = rhs_eval(shifted, params, cfg, g)
            rhs = np.roll(rhs_eval(u, params, cfg, g), 1, axis=axis)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_realness_residue(self):
        # symmetrization keeps outputs real for arbitrary parameters
        g = grid2()
        cfg = small_cfg(g)
        params = init_params(cfg, 12)
        u = np.random.default_rng(13).standard_normal((1,) + g.points)
        out = rhs_eval(u, params, cfg, g)
        assert np.isrealobj(out)

    def test_resolution_transfer(self):
        # same Freq2Vec parameters on a 2x grid, bandlimited input: results
        # agree after spectral upsampling
        coarse = grid2(16)
        fine = grid2(32)
        cfg = small_cfg(coarse, c_in=1, K=3, C=4)
        params = init_params(cfg, 14)
        cutoff = (2 * 8) // 3 // 2  # half the coarse dealias cutoff
        u = bandlimited(coarse, 15, cutoff=cutoff)
        out_coarse = rhs_eval(u, params, cfg, coarse)
        out_fine = rhs_eval(spectral_resample(u, coarse, fine), params, cfg, fine)
        up = spectral_resample(out_coarse, coarse, fine)
        assert np.max(np.abs(out_fine - up)) < 1e-8

    def test_no_pi_output_affine_in_features(self):
        g = grid2()
        cfg = small_cfg(g, no_pi=True)
        params = init_params(cfg, 16)
        ua = bandlimited(g, 17, cutoff=7)
        ub = bandlimited(g, 18, cutoff=7)
        f = lambda u: rhs_eval(u, params, cfg, g)
        zero = np.zeros_like(ua)
        lhs = f(ua) + f(ub) - f(zero)
        assert np.max(np.abs(lhs - f(ua + ub))) < 1e-10

    def test_no_filter_only_removes_mask(self):
        g = grid2()
        cfg_f = small_cfg(g)
        cfg_nf = small_cfg(g, no_filter=True)
        params = init_params(cfg_f, 19)
        u = bandlimited(g, 20, cutoff=2)  # products reach mode 4 < cutoff 5
        # with input narrow enough that products stay under the cutoff,
        # the mask is a no-op and the two graphs agree
        a = rhs_eval(u, params, cfg_f, g)
        b = rhs_eval(u, params, cfg_nf, g)
        assert np.max(np.abs(a - b)) < 1e-11
        # with broadband input they differ
        u2 = bandlimited(g, 21, cutoff=8)
        assert np.max(np.abs(rhs_eval(u2, params, cfg_f, g) - rhs_eval(u2, params, cfg_nf, g))) > 1e-12

    def test_low_pass_runs_on_the_output_channels(self, monkeypatch):
        # the output map mixes the Pi channels down to c_in before the
        # low-pass: an E6-desk right-hand side transforms c_in channels
        # (SLB forward), c_in*K (SLB inverse) and 2*c_in (low-pass), not
        # the C hidden Pi channels twice
        from sino.config import presets
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        transformed = []

        def counting(fn):
            def wrapper(a, *args, axes=None, **kwargs):
                transformed.append(a.size // math.prod(a.shape[ax] for ax in axes))
                return fn(a, *args, axes=axes, **kwargs)
            return wrapper

        u = bandlimited(g, 22, cutoff=10, channels=cfg.c_in)
        params = init_params(cfg, 23)
        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        rhs_eval(u, params, cfg, g)
        assert sum(transformed) == cfg.c_in + cfg.c_in * cfg.K + 2 * cfg.c_in == 14


class TestStepAndRollout:
    def test_zero_params_identity_step(self):
        g = grid2()
        cfg = small_cfg(g)
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        u = bandlimited(g, 22, cutoff=7)
        assert np.array_equal(model_step(u, params, cfg, g), u)

    def test_model_step_checks_its_state_and_result(self):
        # one state, not a batch; a step that overflows raises NonFinite
        from sino.errors import NonFinite
        g = grid2(16)
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=0.1)
        u = bandlimited(g, 62, cutoff=5, channels=2)
        with pytest.raises(ValueError):
            model_step(u[np.newaxis], params, cfg, g)
        with pytest.raises(NonFinite):
            model_step(1e200 * u, params, cfg, g)

    def test_rollout_zero_steps(self):
        g = grid2()
        cfg = small_cfg(g)
        params = init_params(cfg, 23)
        u = bandlimited(g, 24, cutoff=7)
        snaps = rollout(u[np.newaxis], params, cfg, g, 0)
        assert snaps.shape == (1, 1) + u.shape and np.array_equal(snaps[0, 0], u)

    def test_rollout_takes_a_batch(self):
        g = grid2()
        cfg = small_cfg(g)
        u = bandlimited(g, 24, cutoff=7)
        with pytest.raises(ValueError):
            rollout(u, init_params(cfg, 23), cfg, g, 1)

    def test_rollout_deterministic(self):
        g = grid2()
        cfg = small_cfg(g)
        params = init_params(cfg, 25)
        u = 0.1 * bandlimited(g, 26, cutoff=7)
        a = rollout(u[np.newaxis], params, cfg, g, 5)
        b = rollout(u[np.newaxis], params, cfg, g, 5)
        assert a.tobytes() == b.tobytes()

    def test_exact_burgers_rollout_matches_reference(self):
        g = grid2(32)
        dt = 5e-3
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        u0 = bandlimited(g, 27, cutoff=10, channels=2)
        pde = PDESpec(kind="burgers", nu=0.01)
        # 10 steps to 1e-8
        ours = rollout(u0[np.newaxis], params, cfg, g, 10)[0, -1]
        ref = integrate(pde, SolverConfig(dt=dt, t_end=10 * dt, save_dt=10 * dt), g, u0)[-1]
        assert np.max(np.abs(ours - ref)) < 1e-8
        # 100 steps to 1e-6
        ours = rollout(u0[np.newaxis], params, cfg, g, 100)[0, -1]
        ref = integrate(pde, SolverConfig(dt=dt, t_end=100 * dt, save_dt=100 * dt), g, u0)[-1]
        assert np.max(np.abs(ours - ref)) < 1e-6

    def test_euler_flag_reduces_order(self):
        g = grid2(32)
        dt = 2e-2
        cfg_rk, params = exact_burgers_params(g, nu=0.01, dt_model=dt)
        from dataclasses import replace
        cfg_eu = replace(cfg_rk, euler_time=True)
        u0 = bandlimited(g, 28, cutoff=8, channels=2)
        pde = PDESpec(kind="burgers", nu=0.01)
        fine = integrate(pde, SolverConfig(dt=1e-4, t_end=0.1, save_dt=0.1), g, u0)[-1]
        err_rk = np.linalg.norm(rollout(u0[np.newaxis], params, cfg_rk, g, 5)[0, -1] - fine)
        err_eu = np.linalg.norm(rollout(u0[np.newaxis], params, cfg_eu, g, 5)[0, -1] - fine)
        assert err_eu > 10.0 * err_rk


    @pytest.mark.parametrize("preset", ["E6-desk", "E7-desk"])
    def test_batch_rollout_equals_single_rollouts(self, preset):
        from sino.config import presets
        case = presets()[preset]
        cfg, g = case.model, case.train_grid
        params = init_params(cfg, 33)
        u0 = np.stack([0.5 * bandlimited(g, 34 + b, cutoff=5, channels=cfg.c_in)
                       for b in range(3)])
        batch = rollout(u0, params, cfg, g, 4)
        assert batch.shape == (3, 5, cfg.c_in) + g.points
        for b in range(3):
            single = rollout(u0[b : b + 1], params, cfg, g, 4)
            assert np.array_equal(batch[b], single[0])

    def test_a_diverging_trajectory_leaves_the_others_unchanged(self):
        # at dt 0.1 the large-amplitude IC of exact Burgers blows up and the
        # small ones do not; no step raises, and no column mixes with another
        g = grid2(16)
        cfg, params = exact_burgers_params(g, nu=0.01, dt_model=0.1)
        u0 = np.stack([scale * bandlimited(g, 61 + t, cutoff=5, channels=2)
                       for t, scale in enumerate((0.5, 50.0, 0.5))])
        batch = rollout(u0, params, cfg, g, 7)
        for t in (0, 2):
            assert np.array_equal(batch[t], rollout(u0[t : t + 1], params, cfg, g, 7)[0])
        finite = np.isfinite(batch[1]).reshape(8, -1).all(axis=1)
        first = int(np.argmin(finite))
        assert 0 < first and finite[:first].all()
        assert not np.isfinite(batch[1, first:]).any()

    def test_step_transforms_on_half_spectra(self, monkeypatch):
        # one E6-desk RK4 step transforms the state once (c_in channels),
        # makes one inverse SLB transform (c_in*K) and one output transform
        # (c_in) per stage on half spectra, and one inverse for the increment
        from sino.config import presets
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        transformed = []

        def counting(fn):
            def wrapper(a, *args, axes=None, **kwargs):
                transformed.append(a.size // math.prod(a.shape[ax] for ax in axes))
                return fn(a, *args, axes=axes, **kwargs)
            return wrapper

        u = bandlimited(g, 35, cutoff=10, channels=cfg.c_in)
        params = init_params(cfg, 36)
        for name in ("rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        model_step(u, params, cfg, g)
        assert len(transformed) == 10
        channels = cfg.c_in + 4 * (cfg.c_in * cfg.K + cfg.c_in) + cfg.c_in
        assert sum(transformed) == channels == 44

    @pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS])
    def test_a_warm_step_allocates_only_narrow_arrays(self, flag):
        # after a first call, the step's C-wide arrays and the SLB spectra
        # are views of the model's arena under every flag. One more E6-desk
        # step of a B=4 state then peaks at 13.6 times the state under
        # tracemalloc (30.6 when they were fresh): c_in-channel spectra, the
        # features d and the complex temporary of their inverse transform
        import tracemalloc
        from dataclasses import replace

        from sino import model as sino_model
        from sino.config import presets
        from sino.engine import Tensor
        case = presets()["E6-desk"]
        cfg, g = case.model, case.train_grid
        if flag:
            cfg = replace(cfg, **{flag: True})
        state = Tensor(np.stack([bandlimited(g, 37 + b, cutoff=10, channels=cfg.c_in)
                                 for b in range(4)], axis=1))
        maps = sino_model._rhs_maps(sino_model._wrap_params(init_params(cfg, 38), False), cfg, g)
        warm = sino_model._step(state, maps, cfg, g)
        tracemalloc.start()
        try:
            again = sino_model._step(state, maps, cfg, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.data, warm.data)
        assert peak <= 14 * state.data.nbytes


class TestFoldedPiForm:
    """The Pi-block as one quadratic form over the SLB features (model._pi_form):
    its only representation on the tape, and the forward's evaluation where
    that is cheaper than its C-wide factors."""

    def test_the_representation_follows_the_shapes(self):
        # the form costs c_in*S*(S+2) multiply-adds per column and the factors
        # C*(2S+1+c_in): E7-desk (S=12, C=8) and the exact instances (C=d^2)
        # evaluate the factors, every other preset folds, and no ablation flag
        # changes that: under no_pi the factors multiply the zero second W
        from dataclasses import replace

        from sino import model as sino_model
        from sino.config import presets
        folds = {name: sino_model._folds_pi(case.model) for name, case in presets().items()}
        assert folds == {name: name != "E7-desk" for name in folds}
        for name, case in presets().items():
            for flag in ABLATION_FLAGS:
                assert sino_model._folds_pi(replace(case.model, **{flag: True})) == folds[name]
        for dim in (2, 3):
            g = GridSpec(points=(8,) * dim, length=(TWO_PI,) * dim)
            assert not sino_model._folds_pi(exact_burgers_params(g, 0.01, 0.01)[0])
        for name in ("E6-desk", "E7-desk"):
            case = presets()[name]
            pt = sino_model._wrap_params(init_params(case.model, 0), False)
            maps = sino_model._rhs_maps(pt, case.model, case.train_grid)
            assert (maps.factors is None) == folds[name]

    @pytest.mark.parametrize("flag", ["full", *ABLATION_FLAGS])
    @pytest.mark.parametrize("preset", ["E6-desk", "E7-desk"])
    def test_the_form_is_the_only_pi_block_on_the_tape(self, preset, flag):
        # the step's parents are the table, the form, the folded linear
        # branch and the bias, whichever evaluation its forward runs; the
        # factors ride along, off the tape, only where they are cheaper
        from dataclasses import replace

        from sino import model as sino_model
        from sino.config import presets
        case = presets()[preset]
        cfg = case.model if flag == "full" else replace(case.model, **{flag: True})
        pt = _wrap_params(init_params(cfg, 0), True)
        maps = sino_model._rhs_maps(pt, cfg, case.train_grid)
        expected = (maps.table, maps.form, *(() if cfg.no_linear else (maps.linear,)), maps.bias)
        assert len(maps.tensors) == len(expected)
        assert all(t is e for t, e in zip(maps.tensors, expected))
        assert maps.form.shape == (cfg.c_in, cfg.slb_channels + 1, cfg.slb_channels)
        assert (maps.factors is None) == sino_model._folds_pi(cfg)
        if maps.factors is not None:
            pi, pi_out, bias = maps.factors
            assert len(pi) == 2 and pi_out.shape == (cfg.c_in, cfg.C)
            assert not any(t is bias for t in maps.tensors)

    @pytest.mark.parametrize("flag", ["full", *ABLATION_FLAGS])
    @pytest.mark.parametrize("preset", ["E1-desk", "E2-desk", "E6-desk", "E7-desk"])
    def test_both_representations_agree(self, preset, flag, monkeypatch):
        from dataclasses import replace

        from sino import model as sino_model
        from sino.config import presets
        from sino.training import backward
        case = presets()[preset]
        cfg, g = case.model, case.train_grid
        if flag != "full":
            cfg = replace(cfg, **{flag: True})
        rng = np.random.default_rng(39)
        # nonzero Pi biases, so that the form's linear and constant terms count
        params = {k: v + 0.1 * rng.standard_normal(v.shape)
                  for k, v in init_params(cfg, 40).items()}
        segment = 0.5 * rng.standard_normal((3, cfg.c_in) + g.points)
        runs = []
        for folds in (True, False):
            monkeypatch.setattr(sino_model, "_folds_pi", lambda _, folds=folds: folds)
            runs.append((*backward(params, cfg, g, segment),
                         rollout(segment[:2], params, cfg, g, 2)))
        (loss, grads, states), (ref_loss, ref_grads, ref_states) = runs
        assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
        assert np.linalg.norm(states - ref_states) <= 1e-13 * np.linalg.norm(ref_states)
        assert sorted(grads) == sorted(ref_grads) == sorted(params)
        for name, grad in grads.items():
            ref = ref_grads[name]
            assert np.linalg.norm(grad - ref) <= 1e-13 * np.linalg.norm(ref), name


class TestHalfSpectrumMatchesFullFFT:
    """The half-spectrum model against a full-FFT reference written in numpy.

    The reference expands the half table to the full Hermitian table,
    applies the SLB as ifftn(fftn(u) * table).real and the full 2/3 mask;
    the rest of the right-hand side is the same pointwise algebra. Rollouts
    and losses must agree to roundoff, and training.backward's gradients
    with central differences of the reference's loss.
    """

    @staticmethod
    def full_table(half, n):
        """The Hermitian table of all n last-axis modes from its columns 0..n/2."""
        axes = tuple(range(1, half.ndim))
        # column j > n/2 is mode j - n, the conjugate partner of column n - j
        mirrored = np.conj(np.roll(np.flip(half, axis=axes[:-1]), 1, axis=axes[:-1]))
        return np.concatenate([half, mirrored[..., 1 : n // 2][..., ::-1]], axis=-1)

    @classmethod
    def reference_rhs(cls, u, params, cfg, g):
        axes = tuple(range(1, g.dim + 1))
        table = cls.full_table(freq2vec_eval(params, cfg, g), g.points[-1])
        uh = np.fft.fftn(u, axes=axes)
        d = np.fft.ifftn(uh[:, None] * table[None], axes=tuple(a + 1 for a in axes)).real
        d = d.reshape((cfg.slb_channels,) + g.points)
        mix = lambda w, b: np.tensordot(w, d, axes=(1, 0)) + b.reshape((-1,) + (1,) * g.dim)
        v = mix(params["pi.0.w"], params["pi.0.b"])
        if not cfg.no_pi:
            v = v * mix(params["pi.1.w"], params["pi.1.b"])
        # the paper's order: filter the C Pi channels, concatenate, mix
        if not cfg.no_filter:
            index = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in g.points], indexing="ij")
            mask = np.max(np.abs(index), axis=0) <= (2 * (min(g.points) // 2)) // 3
            v = np.fft.ifftn(np.fft.fftn(v, axes=axes) * mask, axes=axes).real
        if not cfg.no_linear:
            v = np.concatenate([mix(params["linear.w"], params["linear.b"]), v])
        return np.tensordot(params["out.w"], v, axes=(1, 0)) \
            + params["out.b"].reshape((-1,) + (1,) * g.dim)

    @classmethod
    def reference_rollout(cls, u, params, cfg, g, n_steps):
        f = lambda v: cls.reference_rhs(v, params, cfg, g)
        dt, states = cfg.dt_model, [u]
        for _ in range(n_steps):
            k1 = f(u)
            k2 = f(u + 0.5 * dt * k1)
            k3 = f(u + 0.5 * dt * k2)
            k4 = f(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(u)
        return states

    @staticmethod
    def rel(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("flag", ["none", "no_filter", "no_freq2vec", "no_pi", "no_linear"])
    def test_rollout_and_gradients(self, dim, flag):
        from sino.training import backward
        n = 16 if dim == 2 else 8
        g = GridSpec(points=(n,) * dim, length=(TWO_PI,) * dim)
        flags = {} if flag == "none" else {flag: True}
        cfg = small_cfg(g, c_in=2, K=2, C=3, dt_model=0.02, **flags)
        rng = np.random.default_rng(12)
        # nonzero biases load every gradient well above the roundoff of the
        # central differences (worst relative error 1.5e-8 of 10 cases)
        params = {k: v + 0.3 * rng.standard_normal(v.shape)
                  for k, v in init_params(cfg, 11).items()}
        # full-band states: energy in every mode, the Nyquist columns included
        u0 = rng.standard_normal((2,) + g.points)
        segment = rollout(u0[np.newaxis], init_params(cfg, 14), cfg, g, 3)[0]
        reference = lambda p: self.reference_rollout(u0, p, cfg, g, 3)
        for a, b in zip(rollout(u0[np.newaxis], params, cfg, g, 3)[0, 1:], reference(params)[1:]):
            assert self.rel(a, b) < 1e-12
        # training.backward's gradient, along a random direction per tensor,
        # against central differences of the reference's loss
        ref_loss = lambda p: np.mean([np.mean((a - b) ** 2)
                                      for a, b in zip(reference(p)[1:], segment[1:])])
        loss, grads = backward(params, cfg, g, segment)
        assert loss == pytest.approx(ref_loss(params), rel=1e-12)
        h = 1e-6
        for name, value in params.items():
            d = rng.standard_normal(value.shape)
            fd = (ref_loss({**params, name: value + h * d})
                  - ref_loss({**params, name: value - h * d})) / (2 * h)
            assert float(np.sum(grads[name] * d)) == pytest.approx(fd, rel=1e-6), name
