"""The SINO forward pass.

The network predicts the right-hand side of an unknown PDE: a shared MLP
(Freq2Vec, squaring activations) maps each frequency index to K complex
multiplier values, the spectral learning block (SLB) applies those
multipliers to the input's spectrum, and the result feeds a linear 1x1
branch and a multiplicative Pi-block (the product of two 1x1 maps, then a
2/3 low-pass). In the paper the two branches are concatenated and mixed by
a final 1x1 map. Time stepping is RK4 over that learned right-hand side.

The right-hand side computes that function in another order. The output
map out.w = [W_lin | W_pi] splits into the columns that read the linear
branch and those that read the Pi-block, and
    out = W_lin (linear.w d + linear.b) + W_pi lowpass(v) + out.b
        = (W_lin linear.w) d + lowpass(W_pi v) + (W_lin linear.b + out.b),
where d are the SLB features and v the C unfiltered Pi channels. The
second line holds because the low-pass is one spectral mask applied to
every channel alike, so it commutes with the pointwise map W_pi. So the
FFT pair of the low-pass runs on c_in channels, not C, and no C-wide linear
branch or concatenation is formed. The folded maps, like the Freq2Vec
table, depend on the parameters alone and are built once per tape
(_rhs_maps), not in every right-hand side evaluation. Under no_linear all
of out.w is W_pi; under no_filter the low-pass is the identity. The
parameters are the paper's; only roundoff differs from the paper's order.

Spectra are real-FFT half spectra (engine.rfftn / engine.irfftn), laid
out as in spectral: the last grid axis keeps its modes 0..N/2, the last
one indexed -N/2. Freq2Vec evaluates its multipliers on that half
spectrum, so every field stays real by construction.

A step works on half spectra, as the reference solvers do. It transforms
the state once, evaluates the four RK4 stages as half spectra (_rhs_hat)
and transforms the combined increment back once. A stage multiplies its
input spectrum by the Freq2Vec table (the SLB spectra z), makes one
inverse transform of the c_in*K SLB channels for the Pi-block, mixes the
Pi channels to c_in, adds the folded bias, and makes one forward
transform of those c_in channels, which the 2/3 mask then filters. The
folded linear branch is pointwise, so it maps z in spectral space with no
transform. So an RK4 step makes 10 FFT calls on c_in + 4(c_in*K + c_in) +
c_in channels (44 on E6-desk), where a stage that went physical ->
spectral -> physical twice made 16 calls on 56. A stage adds only
Hermitian-consistent half spectra (the table is conjugate-symmetric
wherever k and -k both lie in the half spectrum), so this is the same
function up to roundoff.

Inside the model the state carries a batch axis after the channels,
(c_in, B, *points). The FFTs run over the trailing grid axes and the 1x1
maps see B*n_points columns, so a batch of B trajectories steps as one
state. Its columns are independent, so each trajectory equals its own
rollout bit for bit (the tests check it). Training steps a batch of one;
rollout and evaluation step whole sets.

All forward functions come in two flavors: module-level wrappers that take
and return numpy arrays, and tape-building internals (prefixed with an
underscore) used by the training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from .engine import Tensor
from .errors import IncompatibleDomain, NonFinite
from .spectral import GridSpec, freq_grid, two_thirds_mask

ABLATION_FLAGS = ("no_pi", "no_filter", "no_freq2vec", "no_linear", "euler_time")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and stepping hyperparameters.

    freq_norm holds the per-axis normalization divisor for Freq2Vec inputs,
    fixed to N_i/2 of the native (training) grid. Keeping it fixed is what
    lets the same parameters run on finer grids: a physical mode feeds the
    MLP the same value at every resolution.
    """

    c_in: int
    K: int
    C: int
    dt_model: float
    freq_norm: tuple[int, ...]
    mlp_hidden: tuple[int, ...] = (64, 64)
    no_pi: bool = False
    no_filter: bool = False
    no_freq2vec: bool = False
    no_linear: bool = False
    euler_time: bool = False

    def __post_init__(self):
        object.__setattr__(self, "freq_norm", tuple(int(f) for f in self.freq_norm))
        object.__setattr__(self, "mlp_hidden", tuple(int(h) for h in self.mlp_hidden))
        if self.c_in < 1 or self.K < 1 or self.C < 1:
            raise ValueError("c_in, K and C must be positive")
        if not self.dt_model > 0:
            raise ValueError("dt_model must be positive")
        if any(f < 2 for f in self.freq_norm):
            raise ValueError("freq_norm entries must be >= 2")

    @property
    def dim(self) -> int:
        return len(self.freq_norm)

    @property
    def native_points(self) -> tuple[int, ...]:
        return tuple(2 * f for f in self.freq_norm)

    @property
    def n_modes(self) -> int:
        return math.prod(self.native_points)

    @property
    def slb_channels(self) -> int:
        return self.c_in * self.K

    @property
    def mix_width(self) -> int:
        """Input width of the output 1x1 map."""
        if self.no_linear:
            return self.C
        return 2 * self.C

    @property
    def n_pi_factors(self) -> int:
        return 1 if self.no_pi else 2


def config_for_grid(grid: GridSpec, **kwargs) -> ModelConfig:
    """ModelConfig whose native grid is grid: freq_norm is N_i/2 per axis."""
    return ModelConfig(freq_norm=tuple(n // 2 for n in grid.points), **kwargs)


# -- parameters --------------------------------------------------------------


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.no_freq2vec:
        shapes["freq2vec.table"] = (2 * cfg.K, cfg.n_modes)
    else:
        sizes = (cfg.dim,) + cfg.mlp_hidden + (2 * cfg.K,)
        for i in range(len(sizes) - 1):
            shapes[f"freq2vec.w{i}"] = (sizes[i], sizes[i + 1])
            shapes[f"freq2vec.b{i}"] = (sizes[i + 1],)
    for p in range(cfg.n_pi_factors):
        shapes[f"pi.{p}.w"] = (cfg.C, cfg.slb_channels)
        shapes[f"pi.{p}.b"] = (cfg.C,)
    if not cfg.no_linear:
        shapes["linear.w"] = (cfg.C, cfg.slb_channels)
        shapes["linear.b"] = (cfg.C,)
    shapes["out.w"] = (cfg.c_in, cfg.mix_width)
    shapes["out.b"] = (cfg.c_in,)
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.split(".")[-1].startswith("b"):
            params[name] = np.zeros(shape)
        elif name == "freq2vec.table":
            lim = math.sqrt(6.0 / (1 + 2 * cfg.K))
            params[name] = rng.uniform(-lim, lim, size=shape)
        else:
            fan_in, fan_out = shape[0], shape[-1]
            if name.startswith(("pi.", "linear.", "out.")):
                # 1x1 maps are stored (out_channels, in_channels)
                fan_in, fan_out = shape[1], shape[0]
            lim = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-lim, lim, size=shape)
    return params


def _wrap_params(params: dict[str, np.ndarray], requires_grad: bool) -> dict[str, Tensor]:
    return {
        name: Tensor(np.asarray(value, dtype=np.float64), requires_grad=requires_grad)
        for name, value in params.items()
    }


# -- forward graph -----------------------------------------------------------


def _freq2vec(pt: dict[str, Tensor], cfg: ModelConfig, grid: GridSpec) -> Tensor:
    """Multiplier table on the half spectrum, shape (K, *half points), complex.

    psi is evaluated at every half-spectrum index k and at its wrapped
    negation -k (the index -N/2 is its own negation), in one pass, and the
    table is (psi(k) + conj psi(-k)) / 2. Where k and -k both lie in the
    half spectrum (its edge columns), the table is conjugate-symmetric, and
    odd multipliers vanish on each Nyquist index, as in
    FreqGrid.derivative_multiplier.
    """
    n = math.prod(grid.half_points)
    index = freq_grid(grid).index.reshape(grid.dim, n)
    points = np.array(grid.points)[:, None]
    modes = np.concatenate([index, np.where(index == -(points // 2), index, -index)], axis=1)
    if cfg.no_freq2vec:
        if grid.points != cfg.native_points:
            raise IncompatibleDomain(
                "the free multiplier table is bound to the native resolution "
                f"{cfg.native_points}, got {grid.points}"
            )
        # the table holds every mode of the full grid, in numpy fft order
        flat = np.ravel_multi_index(tuple(modes % points), grid.points)
        raw = eg.getitem(pt["freq2vec.table"], (slice(None), flat))
        psi = eg.to_complex(raw[: cfg.K], raw[cfg.K :])
    else:
        h: Tensor = Tensor(np.ascontiguousarray(modes.T) / np.array(cfg.freq_norm))
        n_layers = len(cfg.mlp_hidden) + 1
        for i in range(n_layers):
            h = eg.add(eg.matmul(h, pt[f"freq2vec.w{i}"]), pt[f"freq2vec.b{i}"])
            if i < n_layers - 1:
                h = eg.mul(h, h)
        psi = eg.transpose(eg.to_complex(h[:, : cfg.K], h[:, cfg.K :]), (1, 0))
    table = eg.mul(eg.add(psi[:, :n], eg.conj(psi[:, n:])), 0.5)
    return eg.reshape(table, (cfg.K,) + grid.half_points)


@dataclass(frozen=True)
class _RhsMaps:
    """The parameter-only parts of the right-hand side, built once per tape.

    table is the Freq2Vec table shaped (1, K, 1, *half points) to broadcast
    over the input channels and the batch; pi holds the Pi factors (w, b)
    with b as a column; pi_out (c_in, C) is the output map's Pi columns;
    linear (c_in, c_in*K) is the linear branch folded into the output map,
    None under no_linear; bias (c_in, 1) is the folded output bias; mask is
    the 2/3 low-pass, None under no_filter.
    """

    table: Tensor
    pi: tuple[tuple[Tensor, Tensor], ...]
    pi_out: Tensor
    linear: Tensor | None
    bias: Tensor
    mask: Tensor | None


def _pi_factors(pt: dict[str, Tensor], cfg: ModelConfig) -> tuple[tuple[Tensor, Tensor], ...]:
    return tuple((pt[f"pi.{p}.w"], eg.reshape(pt[f"pi.{p}.b"], (cfg.C, 1)))
                 for p in range(cfg.n_pi_factors))


def _mask(cfg: ModelConfig, grid: GridSpec) -> Tensor | None:
    return None if cfg.no_filter else Tensor(two_thirds_mask(grid))


def _rhs_maps(pt: dict[str, Tensor], cfg: ModelConfig, grid: GridSpec) -> _RhsMaps:
    table = _freq2vec(pt, cfg, grid)
    bias = eg.reshape(pt["out.b"], (cfg.c_in, 1))
    if cfg.no_linear:
        pi_out, linear = pt["out.w"], None
    else:
        out_linear = pt["out.w"][:, : cfg.C]
        pi_out = pt["out.w"][:, cfg.C :]
        linear = eg.matmul(out_linear, pt["linear.w"])
        bias = eg.add(eg.matmul(out_linear, eg.reshape(pt["linear.b"], (cfg.C, 1))), bias)
    return _RhsMaps(
        table=eg.reshape(table, (1, cfg.K, 1) + grid.half_points),
        pi=_pi_factors(pt, cfg),
        pi_out=pi_out,
        linear=linear,
        bias=bias,
        mask=_mask(cfg, grid),
    )


def _grid_axes(a: Tensor, grid: GridSpec) -> tuple[int, ...]:
    """The trailing grid axes of a (..., *points) field or its half spectrum."""
    return tuple(range(a.data.ndim - grid.dim, a.data.ndim))


def _slb(xh: Tensor, table: Tensor, cfg: ModelConfig, grid: GridSpec) -> tuple[Tensor, Tensor]:
    """The SLB of half spectra xh (c_in, B, *half points): the multiplied
    spectra z (c_in, K, B, *half points) and the features d, flat
    (c_in*K, B*n_points); table is shaped (1, K, 1, *half points)."""
    z = eg.mul(eg.reshape(xh, (cfg.c_in, 1) + xh.shape[1:]), table)
    d = eg.irfftn(z, _grid_axes(z, grid), grid.points)
    return z, eg.reshape(d, (cfg.slb_channels, -1))


def _pi_product(d: Tensor, factors) -> Tensor:
    """Product of the affine Pi factors of flat features, unfiltered: (C, columns)."""
    w, b = factors[0]
    v = eg.add(eg.matmul(w, d), b)
    for w, b in factors[1:]:
        v = eg.mul(v, eg.add(eg.matmul(w, d), b))
    return v


def _lowpass_hat(v: Tensor, mask: Tensor | None, grid: GridSpec) -> Tensor:
    """The half spectrum of v (..., *points), 2/3 low-passed unless mask is None."""
    vh = eg.rfftn(v, _grid_axes(v, grid))
    return vh if mask is None else eg.mul(vh, mask)


def _rhs_hat(xh: Tensor, maps: _RhsMaps, cfg: ModelConfig, grid: GridSpec) -> Tensor:
    """The right-hand side of half spectra xh (c_in, B, *half points), as half spectra."""
    z, d = _slb(xh, maps.table, cfg, grid)
    # the low-pass is one mask on every channel, so it commutes with the
    # output map: mix the C Pi channels down to c_in, then filter those
    nonlinear = eg.add(eg.matmul(maps.pi_out, _pi_product(d, maps.pi)), maps.bias)
    out = _lowpass_hat(eg.reshape(nonlinear, xh.shape[:2] + grid.points), maps.mask, grid)
    if maps.linear is None:
        return out
    # the linear branch acts pointwise, so it maps the spectra z directly
    linear = eg.matmul(maps.linear, eg.reshape(z, (cfg.slb_channels, -1)))
    return eg.add(eg.reshape(linear, xh.shape), out)


def _step(u: Tensor, maps: _RhsMaps, cfg: ModelConfig, grid: GridSpec) -> Tensor:
    """One dt_model of states u (c_in, B, *points): the stages on half spectra."""
    dt = cfg.dt_model
    axes = _grid_axes(u, grid)
    uh = eg.rfftn(u, axes)
    if cfg.euler_time:
        incr = eg.mul(_rhs_hat(uh, maps, cfg, grid), dt)
    else:
        k1 = _rhs_hat(uh, maps, cfg, grid)
        k2 = _rhs_hat(eg.add(uh, eg.mul(k1, 0.5 * dt)), maps, cfg, grid)
        k3 = _rhs_hat(eg.add(uh, eg.mul(k2, 0.5 * dt)), maps, cfg, grid)
        k4 = _rhs_hat(eg.add(uh, eg.mul(k3, dt)), maps, cfg, grid)
        incr = eg.mul(eg.add(eg.add(k1, k4), eg.mul(eg.add(k2, k3), 2.0)), dt / 6.0)
    return eg.add(u, eg.irfftn(incr, axes, grid.points))


# -- numpy-facing API ---------------------------------------------------------


def _check_state(u: np.ndarray, cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (cfg.c_in,) + grid.points:
        raise ValueError(f"state must have shape ({cfg.c_in}, {grid.points}), got {u.shape}")
    return u


def _batch_of_one(u: np.ndarray, cfg: ModelConfig, grid: GridSpec) -> Tensor:
    """A checked state (c_in, *points) as the batch (c_in, 1, *points)."""
    return Tensor(_check_state(u, cfg, grid)[:, np.newaxis])


def freq2vec_eval(params: dict[str, np.ndarray], cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    """Evaluate the multiplier table on a grid's half spectrum, (K, *half points) complex."""
    return _freq2vec(_wrap_params(params, False), cfg, grid).data


def slb_apply(u: np.ndarray, table: np.ndarray, cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    """Apply K multipliers to every input channel; output is (c_in*K, *points).

    table is a half-spectrum (K, *half points) table, as freq2vec_eval
    returns; the output is real for any table.
    """
    u = _batch_of_one(u, cfg, grid)
    table = np.asarray(table, dtype=np.complex128)
    if table.shape != (cfg.K,) + grid.half_points:
        raise ValueError(
            f"table must have shape ({cfg.K}, {grid.half_points}), got {table.shape}"
        )
    table = Tensor(table.reshape((1, cfg.K, 1) + grid.half_points))
    _, d = _slb(eg.rfftn(u, _grid_axes(u, grid)), table, cfg, grid)
    return d.data.reshape((cfg.slb_channels,) + grid.points)


def pi_block(d: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
             grid: GridSpec) -> np.ndarray:
    """Product of two affine projections of SLB features (one under no_pi),
    then the low-pass (none under no_filter)."""
    flat = Tensor(np.asarray(d, dtype=np.float64).reshape(cfg.slb_channels, grid.n_points))
    v = _pi_product(flat, _pi_factors(_wrap_params(params, False), cfg)).data
    v = v.reshape((cfg.C,) + grid.points)
    if cfg.no_filter:
        return v
    return eg.irfftn(_lowpass_hat(Tensor(v), _mask(cfg, grid), grid), grid.axes, grid.points).data


def rhs_eval(u: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
             grid: GridSpec) -> np.ndarray:
    """The learned right-hand side evaluated at a state."""
    u = _batch_of_one(u, cfg, grid)
    maps = _rhs_maps(_wrap_params(params, False), cfg, grid)
    axes = _grid_axes(u, grid)
    return eg.irfftn(_rhs_hat(eg.rfftn(u, axes), maps, cfg, grid), axes, grid.points).data[:, 0]


def model_step(u: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
               grid: GridSpec) -> np.ndarray:
    """Advance one dt_model (RK4, or forward Euler under the euler_time flag)."""
    maps = _rhs_maps(_wrap_params(params, False), cfg, grid)
    # a diverging step overflows; the check below reports it as NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        out = _step(_batch_of_one(u, cfg, grid), maps, cfg, grid).data[:, 0]
    if not np.isfinite(out).all():
        raise NonFinite("model step produced non-finite values")
    return out


def rollout(u0: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
            grid: GridSpec, n_steps: int, record_every: int = 1) -> list[np.ndarray]:
    """Iterate model_step, recording every record_every-th state (and the start).

    u0 is one state (c_in, *points) or a batch (B, c_in, *points), and every
    snapshot has the shape of u0. A batch steps as one state with B columns
    per grid point, so each of its trajectories equals its own rollout bit
    for bit; NonFinite is raised at the first step where any of them is
    not finite.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    u0 = np.asarray(u0, dtype=np.float64)
    batched = u0.ndim == grid.dim + 2
    if not batched:
        u0 = _check_state(u0, cfg, grid)[np.newaxis]
    elif u0.shape[1:] != (cfg.c_in,) + grid.points:
        raise ValueError(f"a batch of states must have shape (B, {cfg.c_in}, "
                         f"{grid.points}), got {u0.shape}")
    # the model's batch axis follows the channels: (c_in, B, *points)
    state = Tensor(np.ascontiguousarray(np.swapaxes(u0, 0, 1)))
    snaps = [u0.copy()]
    maps = _rhs_maps(_wrap_params(params, False), cfg, grid)
    # a diverging step overflows; each step's check reports it as NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            state = _step(state, maps, cfg, grid)
            if not np.isfinite(state.data).all():
                raise NonFinite(f"rollout diverged at step {step + 1}", step=step + 1)
            if (step + 1) % record_every == 0:
                snaps.append(np.swapaxes(state.data, 0, 1).copy())
    return snaps if batched else [s[0] for s in snaps]


# -- constructive instance (exact 2D/3D Burgers) ------------------------------


def exact_burgers_params(grid: GridSpec, nu: float,
                         dt_model: float) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Hand-set parameters that reproduce the de-aliased Burgers right-hand side.

    The multipliers [1, i*k_1, ..., i*k_d, -|k|^2] come from an exact
    Freq2Vec MLP (squaring activations, hidden widths (2d, 2d+2)), not from a
    table of grid values, so the same parameters run on any grid of the
    same domain. Each normalized index q_a = k_a / freq_norm_a and the sum
    z = sum_a (k_a / k_ref)^2 cross a squaring layer as the pair
    ((y + 1)^2 - (y - 1)^2) / 4 = y; the squares of layer 0 also give
    q_a^2 = ((q_a + 1)^2 + (q_a - 1)^2) / 2 - 1. The output layer scales q_a
    by 2*pi*freq_norm_a/L_a and z by k_ref^2. Freq2Vec averages psi(k) with
    conj psi(-k), which zeroes i*k_a on the Nyquist index k_a = -N_a/2, its
    own negation, as FreqGrid.derivative_multiplier does. The Pi-block forms
    the d^2 convection products u_j * d_j u_c and the output map assembles
    nu*lap(u_c) - sum_j u_j d_j u_c per component.
    """
    d = grid.dim
    K = d + 2
    C = d * d
    cfg = config_for_grid(grid, c_in=d, K=K, C=C, dt_model=dt_model,
                          mlp_hidden=(2 * d, 2 * d + 2))
    # physical wavenumber per unit of q_a; z is kept O(1) by k_ref
    scale = [2.0 * math.pi * f / length for f, length in zip(cfg.freq_norm, grid.length)]
    k_ref = max(scale)
    z = 2 * d  # layer-1 pair carrying z sits after the d pairs carrying q_a
    w0 = np.zeros((d, 2 * d))
    b0 = np.zeros(2 * d)
    w1 = np.zeros((2 * d, 2 * d + 2))
    b1 = np.zeros(2 * d + 2)
    w2 = np.zeros((2 * d + 2, 2 * K))
    b2 = np.zeros(2 * K)
    for a in range(d):
        plus, minus = 2 * a, 2 * a + 1
        w0[a, [plus, minus]] = 1.0
        b0[[plus, minus]] = (1.0, -1.0)
        # layer 1: q_a + 1 and q_a - 1, from the difference of the squares
        w1[plus, [plus, minus]] = 0.25
        w1[minus, [plus, minus]] = -0.25
        b1[[plus, minus]] = (1.0, -1.0)
        # layer 1: z +/- 1, from the sum of the squares
        w1[[plus, minus], z] = w1[[plus, minus], z + 1] = 0.5 * (scale[a] / k_ref) ** 2
        b1[[z, z + 1]] -= (scale[a] / k_ref) ** 2
        w2[plus, K + 1 + a] = 0.25 * scale[a]    # imag part: i*k_a
        w2[minus, K + 1 + a] = -0.25 * scale[a]
    b1[[z, z + 1]] += (1.0, -1.0)
    w2[z, K - 1] = -0.25 * k_ref**2              # real part: -|k|^2
    w2[z + 1, K - 1] = 0.25 * k_ref**2
    b2[0] = 1.0                                  # real part: 1
    params = {
        "freq2vec.w0": w0, "freq2vec.b0": b0,
        "freq2vec.w1": w1, "freq2vec.b1": b1,
        "freq2vec.w2": w2, "freq2vec.b2": b2,
        "pi.0.w": np.zeros((C, d * K)),
        "pi.0.b": np.zeros(C),
        "pi.1.w": np.zeros((C, d * K)),
        "pi.1.b": np.zeros(C),
        "linear.w": np.zeros((C, d * K)),
        "linear.b": np.zeros(C),
        "out.w": np.zeros((d, 2 * C)),
        "out.b": np.zeros(d),
    }
    for c in range(d):
        for j in range(d):
            row = c * d + j
            params["pi.0.w"][row, j * K + 0] = 1.0        # u_j
            params["pi.1.w"][row, c * K + 1 + j] = 1.0    # d_j u_c
            params["out.w"][c, C + row] = -1.0            # -(u . grad) u_c
        params["linear.w"][c, c * K + (K - 1)] = nu       # nu * lap(u_c)
        params["out.w"][c, c] = 1.0
    return cfg, params
