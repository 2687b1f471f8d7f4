"""The cone kernel of the interior point, pinned to its per-block formulas.

Core claims:
    - on interior points of orthant and second-order block layouts (sizes
      2 to 5, in runs of one size and in alternating sizes), every
      operation of ``solvers._Cone`` and of its Nesterov-Todd scaling
      ``solvers._Scaling`` returns the bits of the per-block formulas below:
      min_eig, u o v, the scaling's lam, determinants, W, W'W
      and W v, lam \\ v, and the step to the boundary along two directions
      (crossings on both sides, heads going negative, boundary rays with
      a = 0, and directions parallel to lam, where rounding can make the
      discriminant negative)
    - u o v and lam \\ v are zero on power rows
"""

import math

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from epsarb import solvers
from epsarb.solvers import ConeProgram


# ---------------------------------------------------------------------------
# Reference: one second-order block at a time
# ---------------------------------------------------------------------------

def _jdet(u):
    nu = math.sqrt(float(u[1:] @ u[1:]))
    return (u[0] - nu) * (u[0] + nu)


def _soc_scaling(s, z):
    """(eta, wbar, lam, det_lam) of one block."""
    a = math.sqrt(max(_jdet(s), 1e-300))
    b = math.sqrt(max(_jdet(z), 1e-300))
    sb = s / a
    zb = z / b
    gamma = math.sqrt(max((1.0 + float(sb @ zb)) / 2.0, 1e-300))
    wb = np.empty_like(s)
    wb[0] = (sb[0] + zb[0]) / (2.0 * gamma)
    wb[1:] = (sb[1:] - zb[1:]) / (2.0 * gamma)
    lam = np.empty_like(s)
    lam[0] = gamma
    lam[1:] = ((gamma + zb[0]) * sb[1:] + (gamma + sb[0]) * zb[1:]) / (sb[0] + zb[0] + 2.0 * gamma)
    return math.sqrt(a / b), wb, math.sqrt(a * b) * lam, a * b


def _soc_matrix(eta, wb):
    w0, w1 = wb[0], wb[1:]
    W = np.empty((wb.size, wb.size))
    W[0, 0] = w0
    W[0, 1:] = W[1:, 0] = w1
    W[1:, 1:] = np.eye(w1.size) + np.outer(w1, w1) / (1.0 + w0)
    return eta * W


def _blocks(prog):
    start = prog.l
    for k in prog.soc:
        yield slice(start, start + k)
        start += k


def _min_eig(prog, u):
    out = float(np.min(u[:prog.l])) if prog.l else np.inf
    for blk in _blocks(prog):
        tail = u[blk.start + 1:blk.stop]
        out = min(out, u[blk.start] - math.sqrt(float(tail @ tail)))
    return out


def _prod(prog, u, v):
    out = np.empty_like(u)
    out[:prog.l] = u[:prog.l] * v[:prog.l]
    for blk in _blocks(prog):
        a, b = u[blk], v[blk]
        out[blk.start] = a @ b
        out[blk.start + 1:blk.stop] = a[0] * b[1:] + b[0] * a[1:]
    return out


def _div(prog, lam, v, dets):
    out = np.empty_like(v)
    out[:prog.l] = v[:prog.l] / lam[:prog.l]
    for blk, det in zip(_blocks(prog), dets):
        a, b = lam[blk], v[blk]
        x0 = (a[0] * b[0] - a[1:] @ b[1:]) / det
        out[blk.start] = x0
        out[blk.start + 1:blk.stop] = (b[1:] - x0 * a[1:]) / a[0]
    return out


def _max_step(prog, lam, d):
    alpha = np.inf
    if prog.l:
        neg = d[:prog.l] < 0.0
        if np.any(neg):
            alpha = float(np.min(-lam[:prog.l][neg] / d[:prog.l][neg]))
    for blk in _blocks(prog):
        u, v = lam[blk], d[blk]
        if v[0] < 0.0:
            alpha = min(alpha, -u[0] / v[0])
        c0 = _jdet(u)
        a = v[0] ** 2 - v[1:] @ v[1:]
        b = 2.0 * (u[0] * v[0] - u[1:] @ v[1:])
        disc = b * b - 4.0 * a * c0
        if disc < 0.0:
            continue
        qq = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [c0 / qq] if qq != 0.0 else []
        if a != 0.0:
            roots.append(qq / a)
        pos = [r for r in roots if r > 0.0]
        if pos:
            alpha = min(alpha, min(pos))
    return alpha


def _reference_scaling(prog, s, z):
    """lam (1 on the power rows), the determinants and W per block, and W'W."""
    m = prog.h.size
    lam = np.ones(m)
    lam[:prog.l] = np.sqrt(s[:prog.l] * z[:prog.l])
    scale_sq = np.zeros((m, m))
    scale_sq[np.arange(prog.l), np.arange(prog.l)] = np.sqrt(s[:prog.l] / z[:prog.l]) ** 2
    dets, mats = [], []
    for blk in _blocks(prog):
        eta, wb, lam[blk], det = _soc_scaling(s[blk], z[blk])
        mats.append(_soc_matrix(eta, wb))
        dets.append(det)
        scale_sq[blk, blk] = mats[-1] @ mats[-1]
    return lam, dets, mats, scale_sq


def _apply(prog, s, z, mats, v):
    out = v.copy()
    out[:prog.l] = v[:prog.l] * np.sqrt(s[:prog.l] / z[:prog.l])
    for blk, W in zip(_blocks(prog), mats):
        out[blk] = W @ v[blk]
    return out


def _same(got, want) -> bool:
    """Bit-equality, signed zeros included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

_FLOATS = st.floats(-3.0, 3.0, allow_subnormal=False)
_MARGINS = st.sampled_from([1e-9, 1e-4, 0.1, 1.0]) | st.floats(1e-6, 5.0)


@st.composite
def _layouts(draw):
    """(l, block sizes, number of power blocks): runs of one size, drawn as
    (size, count) pairs, and alternating sizes."""
    runs = draw(st.lists(st.tuples(st.integers(2, 5), st.integers(1, 4)), min_size=1, max_size=4))
    sizes = tuple(n for n, count in runs for _ in range(count))
    return draw(st.integers(0, 3)), sizes, draw(st.integers(0, 1))


def _program(l, sizes, n_power):
    m = l + sum(sizes) + 3 * n_power
    return ConeProgram(np.zeros(1), np.zeros((m, 1)), np.zeros(m), l, sizes,
                       power=(0.5,) * n_power)


def _interior(draw, prog):
    """A point interior to the orthant and second-order blocks (power rows
    at (1, 1, 0))."""
    m = prog.h.size
    u = np.array(draw(st.lists(_FLOATS, min_size=m, max_size=m)))
    u[:prog.l] = np.abs(u[:prog.l]) + draw(_MARGINS)
    for blk in _blocks(prog):
        tail = u[blk.start + 1:blk.stop]
        u[blk.start] = math.sqrt(float(tail @ tail)) + draw(_MARGINS)
    u[prog.l + sum(prog.soc):] = np.tile([1.0, 1.0, 0.0], len(prog.power))
    return u


def _direction(draw, prog, lam):
    """A free direction, with some blocks on a boundary ray (a = 0),
    parallel to lam (discriminant about 0) or zero."""
    m = prog.h.size
    d = np.array(draw(st.lists(_FLOATS, min_size=m, max_size=m)))
    for blk in _blocks(prog):
        kind = draw(st.sampled_from(["free", "free", "ray", "parallel", "zero"]))
        if kind == "ray":
            t = float(draw(st.integers(-3, 3)))
            d[blk] = 0.0
            d[blk.start] = t
            d[blk.start + draw(st.integers(1, blk.stop - blk.start - 1))] = \
                t * draw(st.sampled_from([-1.0, 1.0]))
        elif kind == "parallel":
            d[blk] = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0])) * lam[blk]
        elif kind == "zero":
            d[blk] = 0.0
    return d


class TestKernelIsBitEqualToTheBlockFormulas:
    # No shrink phase: a broken kernel fails on nearly every draw, and
    # shrinking the drawn vectors took over five minutes; the unshrunk
    # example is reported in full.
    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(_layouts(), st.data())
    def test_every_operation(self, layout, data):
        prog = _program(*layout)
        cone = solvers._Cone(prog)
        sym = prog.l + sum(prog.soc)  # the rows before the power blocks
        s, z = _interior(data.draw, prog), _interior(data.draw, prog)
        u, v = _interior(data.draw, prog), _direction(data.draw, prog, s)

        assert _same(cone.min_eig(u), _min_eig(prog, u))
        assert _same(cone.prod(u, v)[:sym], _prod(prog, u, v)[:sym])

        lam, dets, mats, scale_sq = _reference_scaling(prog, s, z)
        nt = solvers._Scaling(cone, s, z)
        assert _same(nt.lam, lam)
        assert _same([det for run in nt.dets for det in run], dets)
        got = [W for run in nt.mats for W in run]
        assert len(got) == len(mats) and all(_same(W, want) for W, want in zip(got, mats))
        assert _same(nt.scale_sq, scale_sq)
        assert _same(nt.apply(v), _apply(prog, s, z, mats, v))
        assert _same(nt.div(v)[:sym], _div(prog, lam, v, dets)[:sym])

        d1, d2 = _direction(data.draw, prog, lam), _direction(data.draw, prog, lam)
        assert _same(nt.max_step(d1, d2), min(_max_step(prog, lam, d1), _max_step(prog, lam, d2)))

    def test_squares_round_as_the_block_formula_does(self):
        # the block formula squares the head with numpy's float64 power,
        # that is libm's pow, which with glibc's pow differs from
        # 2.759 * 2.759 in the last bit; the step here binds at the root
        # qq / a and moves with it
        prog = _program(0, (2,), 0)
        nt = solvers._Scaling(solvers._Cone(prog), np.array([1.0, -0.3]), np.array([1.0, -0.5]))
        d = np.array([2.759, -2.8])
        assert _same(nt.max_step(d, d), _max_step(prog, nt.lam, d))


class TestPowerRows:
    def test_products_and_quotients_are_zero_there(self):
        # orthant, two second-order blocks and two power blocks; the
        # operand's power rows are NaN
        prog = _program(2, (3, 3), 2)
        cone = solvers._Cone(prog)
        s = np.array([1.0, 2.0, 2.0, 1.0, -1.0, 1.5, 0.5, 0.0] + [1.0, 1.0, 0.0] * 2)
        z = np.array([0.5, 1.0, 3.0, -2.0, 1.0, 1.0, 0.0, 0.5] + [1.0, 1.0, 0.0] * 2)
        v = np.array([1.0, -1.0, 0.5, 2.0, -3.0, 1.0, 1.0, 1.0] + [np.nan] * 6)
        nt = solvers._Scaling(cone, s, z)
        for out in (cone.prod(s, v), cone.prod(nt.lam, nt.lam), nt.div(v)):
            assert np.all(np.isfinite(out))
            assert np.all(out[8:] == 0.0)
