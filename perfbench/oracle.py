"""Exponent-safe oracles for the benchmark's correctness checks.

Every oracle evaluates the defining shell sum of an operator at every
output shell by direct summation in mpmath: window shells one by one, and
the constant inner tail (or the zero region above the window) term by term
until the geometric weights fall below the working precision.  mpmath has
an unbounded exponent range, so the sums stay finite where double
precision overflows, and nothing here calls the library: the oracle works
on plain numbers (``Radial``), so it can check library objects and CLI
documents alike.  Each output shell is compared with the oracle relative
to its own term mass (the sum of the magnitudes of its terms), so shells
many decades below the largest value of an output are checked too.

The formulas, for a radial function with shell values ``u_k`` on
``|x| = q^k`` and ``mu_k = (1 - 1/q) q^k``:

* derivative  ``D u(n) = theta (1-1/q) [q^(-(a+1)n) sum_{k<n} (u_k - u_n) q^k
  + sum_{k>n} (u_k - u_n) q^(-a k)]``, ``theta = (1-q^a)/(1-q^(-a-1))``;
* integral    ``I u(n) = q^(-a) q^(a n) u_n + sum_{k<n} K(n,k) u_k mu_k``
  with ``K = pre (q^((a-1)n) - q^((a-1)k))``, ``pre = (1-q^-a)/(1-q^(a-1))``,
  and ``K = c (n-k) log q`` at ``a = 1``, ``c = (1-q)/(q log q)``;
* Volterra    ``I01 u(n) = c log q sum_{k<n} (n-k) u_k mu_k``;
* resolvent   radial convolution with ``k(q^m) = c m log q - 1/q`` over
  the ball plus ``(q+1)/q`` times the ball integral;
* transform   ``T(n) = (1-1/q) sum_{j<=-n} u_j q^j - u_(1-n) q^(-n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

DPS = 40


@dataclass(frozen=True)
class Radial:
    """Shell values on ``[n_lo, n_hi]``, constant ``tail`` below, zero above."""

    q: int
    alpha: float
    n_lo: int
    n_hi: int
    values: tuple
    tail: complex = 0j

    @classmethod
    def of(cls, u) -> "Radial":
        """From a library ``KRadialFunction`` (duck-typed)."""
        return cls(
            int(u.params.q),
            float(u.params.alpha),
            int(u.n_lo),
            int(u.n_hi),
            tuple(complex(v) for v in u.values),
            complex(u.inner_tail),
        )

    def at(self, j: int) -> complex:
        if j > self.n_hi:
            return 0j
        if j < self.n_lo:
            return self.tail
        return self.values[j - self.n_lo]


def _cut(q: int, rate: float) -> int:
    """Shells needed until ``q^(-rate K)`` is below the working precision."""
    return int(math.ceil((DPS + 8) / (rate * math.log10(q)))) + 8


class _Exact:
    """A ``Radial`` converted once to mpmath numbers."""

    def __init__(self, r: Radial):
        self.r = r
        self.vals = [mp.mpc(v) for v in r.values]
        self.tail = mp.mpc(r.tail)
        self.zero = mp.mpc(0)

    def at(self, j: int):
        r = self.r
        if j > r.n_hi:
            return self.zero
        if j < r.n_lo:
            return self.tail
        return self.vals[j - r.n_lo]


def _consts(r: Radial):
    q = mp.mpf(r.q)
    return q, mp.mpf(r.alpha), 1 - 1 / q, mp.log(q)


# Each oracle below returns ``[(value, mass)]`` for every output shell n in
# ``[lo, hi]``.  It walks the shells once, keeping running sums of the
# defining terms over k < n (and, for the derivative, over k > n), so a
# whole window costs O(W) terms instead of O(W^2).  ``mass`` is the sum of
# the magnitudes of the shell's terms: the scale its rounding error lives
# on.  At 40 digits the running sums carry an error near 1e-40 of the
# mass, far below every tolerance the benchmark checks against.


def d_alpha(x: _Exact, lo: int, hi: int) -> list:
    r = x.r
    q, a, unit, _ = _consts(r)
    theta = (1 - q**a) / (1 - q ** (-a - 1))
    # sums over k > n of u_k q^(-a k), |u_k| q^(-a k) and q^(-a k)
    k = max(hi, r.n_hi) + _cut(r.q, r.alpha)
    w = q ** (-a * k)
    up, s, sm, sw = {}, mp.mpc(0), mp.mpf(0), mp.mpf(0)
    for n in range(hi, lo - 1, -1):
        while k > n:
            s, sm, sw = s + x.at(k) * w, sm + abs(x.at(k)) * w, sw + w
            k, w = k - 1, w * q**a
        up[n] = (s, sm, sw)
    # sums over k < n of u_k q^k, |u_k| q^k and q^k
    k = min(lo, r.n_lo) - _cut(r.q, 1.0)
    w = q**k
    out, s, sm, sw = [], mp.mpc(0), mp.mpf(0), mp.mpf(0)
    scale = abs(theta) * unit
    for n in range(lo, hi + 1):
        while k < n:
            s, sm, sw = s + x.at(k) * w, sm + abs(x.at(k)) * w, sw + w
            k, w = k + 1, w * q
        un, lift = x.at(n), q ** (-(a + 1) * n)
        us, usm, usw = up[n]
        value = theta * unit * (lift * (s - un * sw) + us - un * usw)
        mass = scale * (lift * (sm + abs(un) * sw) + usm + abs(un) * usw)
        out.append((value, mass))
    return out


def i_alpha(x: _Exact, lo: int, hi: int) -> list:
    r = x.r
    q, a, unit, lnq = _consts(r)
    k = min(lo, r.n_lo) - _cut(r.q, min(r.alpha, 1.0)) - 16
    mu = unit * q**k
    out = []
    if r.alpha == 1.0:
        c = (1 - q) / (q * lnq)
        # running sums over k < n of u_k mu_k and (n - k) u_k mu_k
        s, d, sm, dm = mp.mpc(0), mp.mpc(0), mp.mpf(0), mp.mpf(0)
        for n in range(k, hi + 1):
            if n > k:  # step from n - 1: every k < n gains one factor (n - k)
                s, sm = s + x.at(n - 1) * mu, sm + abs(x.at(n - 1)) * mu
                d, dm = d + s, dm + sm
                mu *= q
            if n >= lo:
                local = q ** (n - 1) * x.at(n)
                out.append((local + c * lnq * d, abs(local) + abs(c) * lnq * dm))
        return out
    pre = (1 - q ** (-a)) / (1 - q ** (a - 1))
    g = q ** (a - 1)
    gk = g**k
    # sums over k < n of u_k mu_k and q^((a-1)k) u_k mu_k; q^((a-1)n) - q^((a-1)k)
    # has one sign for all k < n, so the mass sums combine the same way
    s, t, sm, tm = mp.mpc(0), mp.mpc(0), mp.mpf(0), mp.mpf(0)
    for n in range(lo, hi + 1):
        while k < n:
            s, sm = s + x.at(k) * mu, sm + abs(x.at(k)) * mu
            t, tm = t + gk * x.at(k) * mu, tm + gk * abs(x.at(k)) * mu
            k, mu, gk = k + 1, mu * q, gk * g
        qn = g**n
        local = q ** (-a) * q ** (a * n) * x.at(n)
        out.append((local + pre * (qn * s - t), abs(local) + abs(pre * (qn * sm - tm))))
    return out


def i01(x: _Exact, lo: int, hi: int) -> list:
    r = x.r
    q, _, unit, lnq = _consts(r)
    c = (1 - q) / (q * lnq)
    k = min(lo, r.n_lo) - _cut(r.q, 1.0) - 16
    mu = unit * q**k
    s, d, sm, dm = mp.mpc(0), mp.mpc(0), mp.mpf(0), mp.mpf(0)
    out = []
    for n in range(k, hi + 1):
        if n > k:
            s, sm = s + x.at(n - 1) * mu, sm + abs(x.at(n - 1)) * mu
            d, dm = d + s, dm + sm
            mu *= q
        if n >= lo:
            out.append((c * lnq * d, abs(c) * lnq * dm))
    return out


def resolvent(x: _Exact, lo: int, hi: int) -> list:
    r = x.r
    q, _, unit, lnq = _consts(r)
    c = (1 - q) / (q * lnq)

    def kern(m):
        return c * m * lnq - 1 / q

    k0 = min(lo, r.n_lo) - _cut(r.q, 1.0) - 16
    terms = {}  # j -> u_j mu_j on the ball
    mu = unit * q**k0
    for j in range(k0, 1):
        terms[j] = (x.at(j) * mu, mu)
        mu *= q
    total = mp.fsum(t for t, _ in terms.values())
    total_mass = mp.fsum(abs(t) for t, _ in terms.values())
    # sums over n < j <= 0 of k(q^j) u_j mu_j, for n from hi down to lo
    above, s, sm = {}, mp.mpc(0), mp.mpf(0)
    j = 0
    for n in range(hi, lo - 1, -1):
        while j > n:
            t = kern(j) * terms[j][0]
            s, sm, j = s + t, sm + abs(t), j - 1
        above[n] = (s, sm)
    # sums over j < n of u_j mu_j and of the kernel k(q^j) mu_j (the ball)
    below, below_mass, ball, ball_mass = mp.mpc(0), mp.mpf(0), mp.mpf(0), mp.mpf(0)
    j = k0
    out = []
    for n in range(lo, hi + 1):
        while j < n:
            t, m = terms[j]
            below, below_mass = below + t, below_mass + abs(t)
            ball, ball_mass = ball + kern(j) * m, ball_mass + abs(kern(j)) * m
            j += 1
        shell = kern(n) * (1 - 2 / q) * q**n
        un = x.at(n)
        a, am = above[n]
        value = a + kern(n) * below + (ball + shell) * un + (q + 1) / q * total
        mass = am + abs(kern(n)) * below_mass + (ball_mass + abs(shell)) * abs(un) + (q + 1) / q * total_mass
        out.append((value, mass))
    return out


def transform(x: _Exact, lo: int, hi: int) -> list:
    r = x.r
    q, _, unit, _ = _consts(r)
    # T(n) needs the sum over j <= -n: walk n downward so the bound -n rises
    k = min(-hi, r.n_lo) - _cut(r.q, 1.0)
    w = q**k
    s, sm = mp.mpc(0), mp.mpf(0)
    out = {}
    for n in range(hi, lo - 1, -1):
        while k <= -n:
            s, sm = s + x.at(k) * w, sm + abs(x.at(k)) * w
            k, w = k + 1, w * q
        local = x.at(1 - n) * q ** (-n)
        out[n] = (unit * s - local, unit * sm + abs(local))
    return [out[n] for n in range(lo, hi + 1)]


def pairing(u: Radial, v: Radial):
    """L2 pairing over the unit ball, by direct summation."""
    ex, ey = _Exact(u), _Exact(v)
    q, _, unit, _ = _consts(u)
    k0 = min(u.n_lo, v.n_lo) - _cut(u.q, 1.0)
    acc = mp.mpc(0)
    mu = unit * q**k0
    for j in range(k0, 1):
        acc += ex.at(j) * mp.conj(ey.at(j)) * mu
        mu *= q
    return acc


@dataclass(frozen=True)
class ShellOp:
    """One operator the benchmark checks shell by shell."""

    module: str  # library module that defines it
    oracle: object  # ``(x, lo, hi) -> [(value, term mass)]`` on output shells
    tol: str  # key of ``verify.DEFAULT_TOLERANCES`` its residual is held to
    matrix: str | None = None  # its ``operator_matrix`` name, if any


SHELL_OPS = {
    "apply_D_alpha": ShellOp("operators", d_alpha, "eigenfunction_identity"),
    "apply_D_alpha_O": ShellOp("operators", d_alpha, "eigenfunction_identity", "D1O"),
    "apply_I_alpha": ShellOp("operators", i_alpha, "right_inverse", "I1"),
    "apply_I01": ShellOp("operators", i01, "local_representation", "I01"),
    "apply_resolvent_D1O": ShellOp("operators", resolvent, "local_representation", "resolvent"),
    "laplace_transform": ShellOp("laplace", transform, "laplace_difference"),
}
MATRIX_OPS = {op.matrix: name for name, op in SHELL_OPS.items() if op.matrix}


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def all_finite(values) -> bool:
    return all(_is_finite(complex(v)) for v in values)


def exact_output(name: str, inp: Radial, lo: int, hi: int) -> list:
    """``[(value, mass)]`` of operator ``name`` on every shell of ``[lo, hi]``."""
    with mp.workdps(DPS):
        return SHELL_OPS[name].oracle(_Exact(inp), lo, hi)


# A double cannot resolve a gap below its smallest normal number 2^-1022;
# a shell whose term mass lies below it (deep shells of I_alpha at small q,
# whose exact values underflow) is scaled as if its mass were this floor,
# which with the tightest pinned tolerance (1e-14) still accepts a gap only
# up to 2^-1022.
MASS_FLOOR = 2.0**-1022 / 1e-14


def _gap(a, b, mass) -> float:
    """``|a - b|`` relative to the shell's term mass."""
    return float(abs(mp.mpc(a) - mp.mpc(b)) / max(mass, mp.mpf(MASS_FLOOR)))


def output_residual(exact: list, out_values) -> float:
    """Largest gap between an output and the oracle over all its shells,
    each relative to that shell's own term mass, so a small shell is held to
    its own scale and not to the largest value of the output."""
    with mp.workdps(DPS):
        return max(_gap(complex(v), e, m) for v, (e, m) in zip(out_values, exact))


def shell_residual(name: str, inp: Radial, lo: int, out_values) -> float:
    """Oracle residual of one operator output on ``[lo, lo + len - 1]``."""
    return output_residual(exact_output(name, inp, lo, lo + len(out_values) - 1), out_values)


def overlap_residual(exact: list, a_lo: int, a_values, b_lo: int, b_values) -> float:
    """Window invariance: largest gap of two outputs on the shells both
    cover, each relative to that shell's term mass (``exact`` belongs to
    the output ``a``)."""
    worst = 0.0
    with mp.workdps(DPS):
        for i, (a, (_, mass)) in enumerate(zip(a_values, exact)):
            if 0 <= a_lo + i - b_lo < len(b_values):
                worst = max(worst, _gap(complex(a), complex(b_values[a_lo + i - b_lo]), mass))
    return worst


def roundtrip_residual(phi: Radial, down, up) -> float:
    """Inversion recovers ``phi(q^-m)`` and ``phi(q^m)``, relative to max |phi|."""
    scale = max([abs(v) for v in phi.values] + [abs(phi.tail)]) or 1.0
    worst = 0.0
    for m in range(1, len(down) + 1):
        worst = max(worst, abs(complex(down[m - 1]) - phi.at(-m)), abs(complex(up[m - 1]) - phi.at(m)))
    return worst / scale


def norm_residual(u: Radial, value: float) -> float:
    with mp.workdps(DPS):
        exact = mp.sqrt(max(pairing(u, u).real, 0))
        if not math.isfinite(value):
            return math.inf
        return float(abs(mp.mpf(value) - exact) / max(exact, mp.mpf(1e-300)))


def inner_residual(u: Radial, v: Radial, value: complex) -> float:
    with mp.workdps(DPS):
        exact = pairing(u, v)
        if not _is_finite(value):
            return math.inf
        scale = mp.sqrt(max(pairing(u, u).real, 0) * max(pairing(v, v).real, 0))
        return float(abs(mp.mpc(value) - exact) / max(scale, mp.mpf(1e-300)))


# ---------------------------------------------------------------------------
# order-one operator matrices in the e- and f-families


def basis_radial(q: int, family: str, index: int) -> Radial:
    """``e_N`` / ``f_n`` exactly as defined (unit norm), as shell values.

    The scale factor is computed in mpmath and rounded once; the matrix
    checks only sample indices whose scale stays far inside double range.
    """
    with mp.workdps(DPS):
        qm = mp.mpf(q)
        if family == "f":
            s = complex(float((1 - 1 / qm) ** mp.mpf(-0.5) * qm ** (mp.mpf(index) / 2)))
            return Radial(q, 1.0, -index, -index, (s,), 0j)
        if index == 0:
            return Radial(q, 1.0, 0, 0, (1 + 0j,), 1 + 0j)
        s = float(mp.sqrt(1 - 1 / qm) * qm ** (mp.mpf(index) / 2))
        return Radial(q, 1.0, -index, 1 - index, (complex(s), complex(-s / (q - 1))), complex(s))


def matrix_entry(q: int, name: str, family: str, j: int, n: int):
    """``<op(b_n), b_j>`` from the shell oracle and a direct pairing sum.

    The image is evaluated shell by shell on the output window
    ``[n_lo(b_n), 0]``; below it the image is constant for the derivative
    and the resolvent (value at ``n_lo - 1``), zero for ``I1``, and the
    Volterra part keeps the documented zero-limit tail of ``apply_I01``.
    """
    b_n, b_j = basis_radial(q, family, n), basis_radial(q, family, j)
    lo = min(b_n.n_lo, b_j.n_lo)
    with mp.workdps(DPS):
        if name in ("D1O", "resolvent"):
            tail, *values = (v for v, _ in exact_output(MATRIX_OPS[name], b_n, lo - 1, 0))
            image = dict(zip(range(lo, 1), values))
        else:
            values = [v for v, _ in exact_output(MATRIX_OPS[name], b_n, b_n.n_lo, 0)]
            image = dict(zip(range(b_n.n_lo, 1), values))
            tail = mp.mpc(0)
        qm = mp.mpf(q)
        unit = 1 - 1 / qm
        acc = mp.mpc(0)
        for k in range(lo, 1):
            acc += image.get(k, tail) * mp.conj(mp.mpc(b_j.at(k))) * unit * qm**k
        # below lo both functions are constant: ball of radius q^(lo-1)
        acc += tail * mp.conj(mp.mpc(b_j.tail)) * qm ** (lo - 1)
        return acc


def ball_log_moment(q: int, power: int):
    """``int_{|t|<=1} log^power |t|`` by direct summation over shells."""
    with mp.workdps(DPS):
        qm = mp.mpf(q)
        unit, lnq = 1 - 1 / qm, mp.log(qm)
        acc = mp.mpf(0)
        for k in range(-_cut(q, 1.0) - 40, 1):
            acc += (k * lnq) ** power * unit * qm**k
        return acc
