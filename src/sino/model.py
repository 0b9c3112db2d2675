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
branch or concatenation is formed.

The Pi-block folds with W_pi as well. For the S = c_in*K features d of
one grid column, output channel c reads
    W_pi[c] ((W0 d + b0) * (W1 d + b1)) = d^T Q_c d + L_c d + beta_c,
with Q_c = W0^T diag(W_pi[c]) W1 (S x S), L = W_pi (diag(b1) W0 +
diag(b0) W1) and beta = W_pi (b0 * b1), which joins the folded bias
(_pi_form). Under no_pi the second factor is the constant 1 (W1 = 0, b1 =
1), so Q is zero, L = W_pi W0 and beta = W_pi b0. Q_c is the Pi-block's
bilinear symbol in feature space. The form is the block's only
representation on the tape and its only pullback. A forward evaluates it
where its c_in*S*(S+2) multiply-adds per column are fewer than the
C*(2S+1+c_in) of the C-wide factors, and evaluates the factors elsewhere
(_folds_pi): the form at every preset but E7-desk (C=8, S=12), with or
without an ablation flag (under no_pi the factors multiply the zero W1 as
the form multiplies its zero Q), the factors there and at the exact
Burgers instances, whose C is d^2. The choice follows from the shapes
alone, and the two agree to roundoff.

The folded maps, like the Freq2Vec table, depend on the parameters alone
and are built once per tape (_rhs_maps), not in every right-hand side
evaluation. The maps carry the ablations: under no_freq2vec the table is
the free table, C-ordered as the polynomial's is, under no_filter the mask
is all ones, and under no_linear out.w is all W_pi. The parameters are the
paper's; only roundoff differs from the paper's order.

Spectra are real-FFT half spectra (np.fft.rfftn / np.fft.irfftn), laid
out as in spectral: the last grid axis keeps its modes 0..N/2, the last
one indexed -N/2. Freq2Vec evaluates its multipliers on that half
spectrum, so every field stays real by construction.

The Freq2Vec MLP is evaluated as the polynomial it computes, of degree 2^L
in the normalized index q for L squaring layers (freq2vec): its weights
fold into the coefficients once per tape, and no (modes x hidden)
activation is formed. The table's real part is the even part of the real
outputs' polynomials in q and its imaginary part the odd part of the
others', an index -N/2 being its own negation.

A step works on half spectra, as the reference solvers do. It transforms
the state once, evaluates the four RK4 stages as half spectra (_stage) and
transforms the increment sum_i b_i k_i back once: the scheme is its
tableau (a, b), and euler_time only chooses the one-stage tableau. A stage
multiplies its input spectrum by the Freq2Vec table (the SLB spectra z),
makes one inverse transform of the c_in*K SLB channels for the Pi-block,
evaluates the Pi-block mixed to c_in channels (its form, or W_pi times its
C channels), adds the folded bias (without beta with the factors), and
makes one forward transform of those c_in channels, which the 2/3 mask
then filters. The folded linear branch is pointwise, so it maps z in
spectral space with no transform. So an RK4 step makes 10 FFT calls on
c_in + 4(c_in*K + c_in) + c_in channels (44 on E6-desk), with the form or
without. A stage adds only Hermitian-consistent half spectra (the table is
conjugate-symmetric wherever k and -k both lie in the half spectrum), so
this is the same function up to roundoff.

A step is one tape node (_step), whose forward is plain numpy. Under
gradients it keeps the state and the stage inputs, c_in-channel half
spectra, and its pullback (_stage_vjp per stage, last stage first) is the
discrete adjoint of RK4: it recomputes each stage's SLB spectra and
features from the stage input, and pulls the cotangent back through the
form (_quadratic_vjp, which adds into the form's cotangent), the mask, the
transforms and the conjugate SLB. It takes that path whichever evaluation
the forward ran: the form and the factors compute one function, so its
pullback is the exact gradient of either, up to roundoff. That is per-step
gradient checkpointing (Chen et al., arXiv:1604.06174), and the adjoint of
an RK scheme is the RK scheme with the same weights b (Sanz-Serna, SIAM
Review 58, 2016), so one tableau drives both. The Freq2Vec table is one
node too (freq2vec.polynomial_table), whose pullback recomputes the
coefficients, and so is the form (_pi_form), whose pullback maps the
form's cotangent that the steps sum back to pi.0.*, pi.1.* and W_pi. So a
training window's tape holds the table node and the few _rhs_maps nodes
after it, one node per step and per loss term; the stage intermediates
live only while one stage's pullback runs. Without a gradient a step keeps
nothing. rhs_eval and slb_apply run the same stage code; pi_block, the
inspection API of the C Pi channels, runs the factors' code.

The step's arrays wider than c_in channels, except the features d, their
cotangent spectra and the transforms' own temporaries, are views of one
module-level arena: one flat buffer per role, grown to the largest request
and filled with out= (_buffer): the C-wide Pi factors of a forward that
evaluates them, and the c_in*(S+1) rows of the form's products and, in the
pullback, of their cotangent. A warm step therefore allocates no array as
wide as C or as the form, and glibc does not hand their pages back to the
system and fault them in again at every stage. Each view is overwritten by
the next stage, so none is returned or kept on the tape, and two threads
must not step at once. The buffers keep the size of the largest step the
process has run.

Inside the model the state carries a batch axis after the channels,
(c_in, B, *points). The FFTs run over the trailing grid axes and the 1x1
maps see B*n_points columns, so a batch of B trajectories steps as one
state. Its columns are independent, so each trajectory equals its own
rollout bit for bit (the tests check it). A training iteration rolls its
batch's warm-ups as one, and then steps its B windows as one state on one
tape, on maps built once; evaluation rolls a whole test set as one.

The public functions take and return numpy arrays; the underscored
internals that build the tape (_rhs_maps, _step) serve the training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from . import freq2vec
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
        if not 0 < self.dt_model < math.inf:
            raise ValueError(f"dt_model must be finite and positive, got {self.dt_model}")
        if any(f < 2 for f in self.freq_norm):
            raise ValueError("freq_norm entries must be >= 2")
        if any(h < 1 for h in self.mlp_hidden):
            raise ValueError(f"mlp_hidden entries must be >= 1, got {list(self.mlp_hidden)}")

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

    The table is (psi(k) + conj psi(-k)) / 2 at every half-spectrum index
    k, with -k wrapped (the index -N/2 is its own negation). Where k and -k
    both lie in the half spectrum (its edge columns), it is conjugate-
    symmetric, and odd multipliers vanish on each Nyquist index, as in
    FreqGrid.derivative_multiplier. psi is the MLP, evaluated as the
    polynomial it computes (freq2vec.polynomial_table); under no_freq2vec it
    is the free table, gathered at k and -k.
    """
    if not cfg.no_freq2vec:
        layers = [(pt[f"freq2vec.w{i}"], pt[f"freq2vec.b{i}"])
                  for i in range(len(cfg.mlp_hidden) + 1)]
        return freq2vec.polynomial_table(layers, cfg.freq_norm, grid)
    if grid.points != cfg.native_points:
        raise IncompatibleDomain(
            "the free multiplier table is bound to the native resolution "
            f"{cfg.native_points}, got {grid.points}"
        )
    n = math.prod(grid.half_points)
    index = freq_grid(grid).index.reshape(grid.dim, n)
    points = np.array(grid.points)[:, None]
    modes = np.concatenate([index, np.where(index == -(points // 2), index, -index)], axis=1)
    # the table holds every mode of the full grid, in numpy fft order
    flat = np.ravel_multi_index(tuple(modes % points), grid.points)
    raw = eg.getitem(pt["freq2vec.table"], (slice(None), flat))
    psi = eg.to_complex(raw[: cfg.K], raw[cfg.K :])
    table = eg.mul(eg.add(psi[:, :n], eg.conj(psi[:, n:])), 0.5)
    return eg.reshape(table, (cfg.K,) + grid.half_points)


@dataclass(frozen=True)
class _RhsMaps:
    """The parameter-only parts of the right-hand side, built once per tape.

    table is the Freq2Vec table, C-ordered and shaped (1, K, 1, *half points)
    to broadcast over the input channels and the batch. form (c_in, S+1, S)
    is the Pi-block with the output map's Pi columns as its quadratic form
    over the S = c_in*K SLB features (_pi_form). linear (c_in, S) is the
    linear branch folded into the output map, None under no_linear; bias
    (c_in, 1) is the folded output bias with the form's constant term; mask
    is the 2/3 low-pass, a constant array, all ones under no_filter.

    Where the C-wide factors are cheaper to evaluate (_folds_pi false),
    factors is (pi, pi_out, bias): the Pi factors (w, b) with b as a column,
    the output map's Pi columns (c_in, C) and the folded bias without the
    form's constant term; otherwise None. A step's forward reads them in
    place of form and bias. They are not its parents, so every gradient
    flows through the form.
    """

    table: Tensor
    form: Tensor
    linear: Tensor | None
    bias: Tensor
    mask: np.ndarray
    factors: tuple | None

    @property
    def tensors(self) -> tuple[Tensor, ...]:
        """The maps a step reads, in the order its pullback returns their cotangents."""
        linear = () if self.linear is None else (self.linear,)
        return (self.table, self.form, *linear, self.bias)


def _pi_factors(pt: dict[str, Tensor], cfg: ModelConfig) -> tuple[tuple[Tensor, Tensor], ...]:
    """The two Pi factors (w, b), b as a column; under no_pi the second is
    the constant 1 (w = 0, b = 1)."""
    pi = [(pt[f"pi.{p}.w"], eg.reshape(pt[f"pi.{p}.b"], (cfg.C, 1)))
          for p in range(cfg.n_pi_factors)]
    if cfg.no_pi:
        pi.append((Tensor(np.zeros((cfg.C, cfg.slb_channels))), Tensor(np.ones((cfg.C, 1)))))
    return tuple(pi)


def _mask(cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    return np.ones(grid.half_points) if cfg.no_filter else two_thirds_mask(grid)


def _folds_pi(cfg: ModelConfig) -> bool:
    """Whether the step's forward evaluates the Pi-block as its quadratic
    form (_pi_form) rather than as the C-wide factors: the form needs fewer
    multiply-adds per grid column, c_in*S*(S+2) against C*(2S+1+c_in) for
    S = c_in*K. Both counts hold under no_pi too, where the factors
    multiply the constant second factor and the form's Q is zero, so the
    choice reads the shapes alone."""
    s = cfg.slb_channels
    return cfg.c_in * s * (s + 2) < cfg.C * (2 * s + 1 + cfg.c_in)


def _pi_form(pi, pi_out: Tensor) -> Tensor:
    """The Pi-block folded with the output map's Pi columns, one tape node.

    For factors pi = ((W0, b0), (W1, b1)), W_p (C, S) and b_p (C, 1), and
    pi_out (c_in, C), every grid column d of S features has
        pi_out (W0 d + b0)(W1 d + b1) = sum_i d_i (Q d)_i + L d + pi_out (b0 b1)
    with Q_c = W0^T diag(pi_out[c]) W1 and L = pi_out (b1 W0 + b0 W1). The
    node's value is form (c_in, S+1, S): Q_c in its first S rows and L_c in
    its last. The constant term pi_out (b0 b1) is left to the caller.
    """
    (w0, b0), (w1, b1) = pi
    s = w0.shape[1]
    linear = b1.data * w0.data + b0.data * w1.data          # (C, S)
    form = np.empty((pi_out.shape[0], s + 1, s))
    form[:, :s] = (w0.data.T * pi_out.data[:, np.newaxis]) @ w1.data
    form[:, s] = pi_out.data @ linear

    def vjp(g):
        p = pi_out.data
        g_q, g_l = g[:, :s], g[:, s]
        pg_l = p.T @ g_l                                    # (C, S)
        w0_g = w0.data @ g_q                                # W0 g_Q_c, (c_in, C, S)
        w1_g = w1.data @ g_q.transpose(0, 2, 1)             # W1 g_Q_c^T
        p3 = p[:, :, np.newaxis]
        g_w0 = (p3 * w1_g).sum(axis=0) + b1.data * pg_l
        g_w1 = (p3 * w0_g).sum(axis=0) + b0.data * pg_l
        g_b0 = (w1.data * pg_l).sum(axis=1, keepdims=True)
        g_b1 = (w0.data * pg_l).sum(axis=1, keepdims=True)
        g_p = (w0_g * w1.data).sum(axis=2) + g_l @ linear.T
        return g_w0, g_b0, g_w1, g_b1, g_p

    return eg._node(form, (w0, b0, w1, b1, pi_out), vjp)


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
    pi = _pi_factors(pt, cfg)
    (_, b0), (_, b1) = pi
    return _RhsMaps(
        table=eg.reshape(table, (1, cfg.K, 1) + grid.half_points),
        form=_pi_form(pi, pi_out),
        linear=linear,
        bias=eg.add(bias, eg.matmul(pi_out, eg.mul(b0, b1))),
        mask=_mask(cfg, grid),
        factors=None if _folds_pi(cfg) else (pi, pi_out, bias),
    )


# -- the step: one tape node with a hand-written pullback ---------------------

# The arena's roles: the SLB spectra "z", the Pi factors "f0" (then their
# product) and "f1" of a forward that evaluates them, the form's products or
# their cotangent "v", the features' cotangent "g_d", and a complex
# "scratch". The features d and the spectra gz of their cotangent are
# np.fft's own outputs: the benchmark's span tracer cannot pass an out=
# keyword through to np.fft.
_ARENA: dict[str, np.ndarray] = {}
_COMPLEX_ROLES = ("z", "scratch")


def _buffer(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """A view of shape on the arena's buffer for role."""
    n = math.prod(shape)
    flat = _ARENA.get(role)
    if flat is None or flat.size < n:
        dtype = np.complex128 if role in _COMPLEX_ROLES else np.float64
        flat = _ARENA[role] = np.empty(n, dtype)
    return flat[:n].reshape(shape)


def _slb(xh: np.ndarray, table: np.ndarray, cfg: ModelConfig,
         grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The SLB of half spectra xh (c_in, B, *half points): the multiplied
    spectra z (c_in, K, B, *half points) and the features d, flat
    (c_in*K, B*n_points); table is shaped (1, K, 1, *half points)."""
    xr = xh.reshape((cfg.c_in, 1) + xh.shape[1:])
    z = np.multiply(xr, table, out=_buffer("z", (cfg.c_in, cfg.K) + xh.shape[1:]))
    d = np.fft.irfftn(z, s=grid.points, axes=grid.axes)
    return z, d.reshape(cfg.slb_channels, -1)


def _pi_channels(d: np.ndarray, pi) -> np.ndarray:
    """(w_0 d + b_0) * (w_1 d + b_1): the C Pi channels of the features d,
    unfiltered, in the arena's f0; pi holds the two factors' (w, b) tensors."""
    (w0, b0), (w1, b1) = pi
    v = np.matmul(w0.data, d, out=_buffer("f0", (w0.shape[0], d.shape[1])))
    v += b0.data
    f1 = np.matmul(w1.data, d, out=_buffer("f1", v.shape))
    f1 += b1.data
    v *= f1
    return v


def _quadratic(d: np.ndarray, form: np.ndarray) -> np.ndarray:
    """sum_i d_i (Q_c d)_i + L_c d per channel c of the form (c_in, S+1, S)
    (_pi_form), for the features d (S, columns); the products are the
    arena's v."""
    c_in, s1, s = form.shape
    t = np.matmul(form.reshape(c_in * s1, s), d, out=_buffer("v", (c_in * s1, d.shape[1])))
    t = t.reshape(c_in, s1, -1)
    t[:, :s] *= d
    return t.sum(axis=1)


def _lowpass_hat(v: np.ndarray, mask: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The half spectrum of v (..., *points), times mask."""
    vh = np.fft.rfftn(v, axes=grid.axes)
    vh *= mask
    return vh


def _stage(xh: np.ndarray, maps: _RhsMaps, cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    """The right-hand side of half spectra xh (c_in, B, *half points), as half spectra."""
    z, d = _slb(xh, maps.table.data, cfg, grid)
    # the low-pass is one mask on every channel, so it commutes with the
    # output map: mix the Pi-block down to c_in channels, then filter those
    if maps.factors is None:
        nonlinear, bias = _quadratic(d, maps.form.data), maps.bias
    else:
        pi, pi_out, bias = maps.factors
        nonlinear = pi_out.data @ _pi_channels(d, pi)
    nonlinear += bias.data
    out = _lowpass_hat(nonlinear.reshape(xh.shape[:2] + grid.points), maps.mask, grid)
    if maps.linear is None:
        return out
    # the linear branch acts pointwise, so it maps the spectra z directly
    out += (maps.linear.data @ z.reshape(cfg.slb_channels, -1)).reshape(xh.shape)
    return out


def _rfftn_vjp(g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The pullback of rfftn over the grid axes: a cotangent half spectrum
    g, which it overwrites, to a cotangent field (..., *points). Here and in
    _irfftn_vjp the interior modes are weighted as the engine docstring says."""
    g = eg._weight_interior(g, grid.axes[-1], grid.points[-1], 0.5)
    out = np.fft.irfftn(g, s=grid.points, axes=grid.axes)
    out *= grid.n_points
    return out


def _irfftn_vjp(g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The pullback of irfftn over the grid axes: a cotangent field g
    (..., *points) to a cotangent half spectrum."""
    gh = np.fft.rfftn(g, axes=grid.axes)
    gh /= grid.n_points
    return eg._weight_interior(gh, grid.axes[-1], grid.points[-1], 2.0)


def _quadratic_vjp(d: np.ndarray, form: np.ndarray, g: np.ndarray):
    """Pull the cotangent g (c_in, columns) of _quadratic back to the
    features d and to the form: g_d = sum_c (Q_c + Q_c^T)(d g_c) + L_c^T g_c,
    g_Q_c = (d g_c) d^T and g_L_c = g_c d^T.

    The products u_c = [d g_c; g_c] (c_in, S+1, columns) fill the arena's v;
    both cotangents are one matmul of them, and g_d is the arena's g_d."""
    c_in, s1, s = form.shape
    u = _buffer("v", (c_in, s1, d.shape[1]))
    np.multiply(d, g[:, np.newaxis], out=u[:, :s])
    u[:, s] = g
    g_form = u @ d.T
    # (Q_c + Q_c^T | L_c^T) side by side over c, against u stacked over c
    q = form[:, :s]
    adjoint = np.concatenate([q + q.transpose(0, 2, 1), form[:, s:].transpose(0, 2, 1)], axis=2)
    g_d = np.matmul(adjoint.transpose(1, 0, 2).reshape(s, c_in * s1), u.reshape(c_in * s1, -1),
                    out=_buffer("g_d", d.shape))
    return g_d, g_form


def _stage_vjp(xh: np.ndarray, g: np.ndarray, maps: _RhsMaps, cfg: ModelConfig,
               grid: GridSpec, grads: list) -> np.ndarray:
    """Pull the cotangent g of the stage at xh back: add each map's cotangent
    into grads, in maps.tensors order, and return that of xh.

    The SLB spectra and features are recomputed from xh. The Pi-block is
    pulled back through its form whichever evaluation the forward ran."""
    table = maps.table.data
    # the mask and the low-pass rfftn
    g_nl = _rfftn_vjp(g * maps.mask, grid)
    g_nl = g_nl.reshape(cfg.c_in, -1)
    # the mixed Pi-block, as its form
    z, d = _slb(xh, table, cfg, grid)
    g_d, g_form = _quadratic_vjp(d, maps.form.data, g_nl)
    # the SLB's irfftn
    gz = _irfftn_vjp(g_d.reshape(z.shape[:-grid.dim] + grid.points), grid)
    scratch = _buffer("scratch", gz.shape)
    linear = []
    if maps.linear is not None:
        g_flat = g.reshape(cfg.c_in, -1)
        z_flat = z.reshape(cfg.slb_channels, -1)
        flat = scratch.reshape(z_flat.shape)
        linear.append((g_flat @ np.conjugate(z_flat, out=flat).T).real)
        gz += np.matmul(maps.linear.data.T, g_flat, out=flat).reshape(gz.shape)
    # the SLB's product with the table
    xr = xh.reshape((cfg.c_in, 1) + xh.shape[1:])
    g_table = np.multiply(np.conjugate(xr), gz, out=scratch).sum(axis=(0, 2), keepdims=True)
    contributions = (g_table, g_form, *linear, g_nl.sum(axis=1, keepdims=True))
    for i, c in enumerate(contributions):
        grads[i] = c if grads[i] is None else grads[i] + c
    return np.multiply(np.conjugate(table), gz, out=scratch).sum(axis=1)


def _step(u: Tensor, maps: _RhsMaps, cfg: ModelConfig, grid: GridSpec) -> Tensor:
    """One dt_model of states u (c_in, B, *points), as one tape node.

    The state is transformed once, the stages run on half spectra and the
    increment is transformed back once. The scheme is the tableau (a, b):
    RK4's, or forward Euler's under euler_time, the only place the flag is
    read. Stage i+1 reads uh + a[i] k_i and the increment is sum_i b[i] k_i,
    in stage order. With a parent that requires a gradient the node keeps
    the stage inputs, c_in-channel half spectra, and its pullback walks the
    stages backwards through the same a and b, each recomputed from its
    input: the discrete adjoint of the scheme. Otherwise it keeps nothing.
    """
    dt = cfg.dt_model
    # stage i+1 reads uh + a[i] * k_i; the increment weighs k_i by b[i]
    a, b = ((), (dt,)) if cfg.euler_time else \
        ((0.5 * dt, 0.5 * dt, dt), (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0))
    parents = (u, *maps.tensors)
    keep = any(p.requires_grad for p in parents)
    uh = np.fft.rfftn(u.data, axes=grid.axes)
    xs, ks = [uh], [_stage(uh, maps, cfg, grid)]
    for a_i in a:
        x = uh + ks[-1] * a_i
        ks.append(_stage(x, maps, cfg, grid))
        if keep:
            xs.append(x)
    incr = ks[0] * b[0]
    for k, b_i in zip(ks[1:], b[1:]):
        incr += k * b_i
    out = u.data + np.fft.irfftn(incr, s=grid.points, axes=grid.axes)
    if not keep:
        return Tensor(out)

    def vjp(g):
        g_incr = _irfftn_vjp(g, grid)
        grads = [None] * len(maps.tensors)
        g_uh, g_k = None, None
        for i in reversed(range(len(xs))):
            g_ki = g_incr * b[i] if g_k is None else g_incr * b[i] + g_k
            g_x = _stage_vjp(xs[i], g_ki, maps, cfg, grid, grads)
            g_uh = g_x if g_uh is None else g_uh + g_x
            g_k = g_x * a[i - 1] if i else None
        return (g + _rfftn_vjp(g_uh, grid) if u.requires_grad else None, *grads)

    return Tensor(out, requires_grad=True, parents=parents, vjp=vjp)


# -- numpy-facing API ---------------------------------------------------------


def _check_state(u: np.ndarray, cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (cfg.c_in,) + grid.points:
        raise ValueError(f"state must have shape ({cfg.c_in}, {grid.points}), got {u.shape}")
    return u


def _batch_of_one(u: np.ndarray, cfg: ModelConfig, grid: GridSpec) -> np.ndarray:
    """A checked state (c_in, *points) as the batch (c_in, 1, *points)."""
    return _check_state(u, cfg, grid)[:, np.newaxis]


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
    table = table.reshape((1, cfg.K, 1) + grid.half_points)
    _, d = _slb(np.fft.rfftn(u, axes=grid.axes), table, cfg, grid)
    return d.reshape((cfg.slb_channels,) + grid.points)


def pi_block(d: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
             grid: GridSpec) -> np.ndarray:
    """Product of two affine projections of SLB features (the second the
    constant 1 under no_pi), then the step's low-pass mask (_mask, all ones
    under no_filter): the C Pi channels, formed from the factors whether or
    not the step folds them (_folds_pi)."""
    flat = np.asarray(d, dtype=np.float64).reshape(cfg.slb_channels, grid.n_points)
    pi = _pi_factors(_wrap_params(params, False), cfg)
    v = _pi_channels(flat, pi).reshape((cfg.C,) + grid.points)
    return np.fft.irfftn(_lowpass_hat(v, _mask(cfg, grid), grid), s=grid.points, axes=grid.axes)


def rhs_eval(u: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
             grid: GridSpec) -> np.ndarray:
    """The learned right-hand side evaluated at a state."""
    uh = np.fft.rfftn(_batch_of_one(u, cfg, grid), axes=grid.axes)
    maps = _rhs_maps(_wrap_params(params, False), cfg, grid)
    return np.fft.irfftn(_stage(uh, maps, cfg, grid), s=grid.points, axes=grid.axes)[:, 0]


def model_step(u: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
               grid: GridSpec) -> np.ndarray:
    """Advance one dt_model (RK4, or forward Euler under the euler_time flag)."""
    out = rollout(_check_state(u, cfg, grid)[np.newaxis], params, cfg, grid, 1)[0, 1]
    if not np.isfinite(out).all():
        raise NonFinite("model step produced non-finite values")
    return out


def rollout(u0: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
            grid: GridSpec, n_steps: int) -> np.ndarray:
    """Step a batch of states u0 (B, c_in, *points) n_steps steps of
    dt_model, recording the start and every step.

    The snapshots come in TrajectoryDataset.data's layout,
    (B, n_steps + 1, c_in, *points), so a set whose cadence is dt_model rolls
    out onto its own snapshots. The batch steps as one state with B columns
    per grid point, and no column mixes with another, so each trajectory
    equals its own rollout bit for bit. A diverging trajectory is marked, not
    raised: from its first step that is not finite its snapshots are
    non-finite, and the others step on unchanged.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape[1:] != (cfg.c_in,) + grid.points:
        raise ValueError(f"a batch of states must have shape (B, {cfg.c_in}, "
                         f"{grid.points}), got {u0.shape}")
    snaps = np.empty((u0.shape[0], n_steps + 1) + u0.shape[1:])
    snaps[:, 0] = u0
    _advance(u0, _rhs_maps(_wrap_params(params, False), cfg, grid), cfg, grid, n_steps, snaps)
    return snaps


def _advance(u0: np.ndarray, maps: _RhsMaps, cfg: ModelConfig, grid: GridSpec,
             n_steps: int, snaps: np.ndarray | None = None) -> np.ndarray:
    """Step a batch of states u0 (B, c_in, *points) n_steps steps with
    prebuilt maps, without gradients, and return the last states in u0's
    layout. Step s is also written into snaps[:, s] if snaps is given."""
    # the model's batch axis follows the channels: (c_in, B, *points)
    state = Tensor(np.ascontiguousarray(np.swapaxes(u0, 0, 1)))
    # a diverging trajectory overflows, and its NaN and inf stay in its columns
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            state = _step(state, maps, cfg, grid)
            if snaps is not None:
                snaps[:, step] = np.swapaxes(state.data, 0, 1)
    return np.swapaxes(state.data, 0, 1)


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
    params = {name: np.zeros(shape) for name, shape in _param_shapes(cfg).items()}
    w0, b0, w1, b1, w2, b2 = (params[f"freq2vec.{n}"] for n in ("w0", "b0", "w1", "b1", "w2", "b2"))
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
    for c in range(d):
        for j in range(d):
            row = c * d + j
            params["pi.0.w"][row, j * K + 0] = 1.0        # u_j
            params["pi.1.w"][row, c * K + 1 + j] = 1.0    # d_j u_c
            params["out.w"][c, C + row] = -1.0            # -(u . grad) u_c
        params["linear.w"][c, c * K + (K - 1)] = nu       # nu * lap(u_c)
        params["out.w"][c, c] = 1.0
    return cfg, params
