"""Independent direct-from-definition evaluator used to cross-check every measure.

Works on plain nested lists p[x][y][z] with exact ``fractions.Fraction``
arithmetic for all probability algebra (marginals, conditionals, fills,
reconstructions), converting to floats only inside the final log sums.
Nothing here imports from the package under test.

``all_measures`` computes the marginals, filled conditionals,
reconstructions and do-rows of its joint once (an ``_Exact`` made for that
call) and derives every measure from them; each public function makes its
own, so nothing is kept between calls.

Conventions mirror the documented ones: base-2 logs, 0 log 0 = 0, the
KL divergence returns math.inf on support violations, undefined
conditionals are filled per the a/b/c sparse rules, and a denominator
entropy of zero makes the corresponding normalized measure 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product

ZERO = Fraction(0)
ONE = Fraction(1)


def _cells(shape):
    return product(*(range(d) for d in shape))


def _shape(p):
    return (len(p), len(p[0]), len(p[0][0]))


def to_fractions(p, denominator=None):
    """Nested list of floats/ints -> nested list of Fractions (exact)."""
    out = []
    for plane in p:
        out.append([])
        for row in plane:
            if denominator is None:
                out[-1].append([Fraction(v) for v in row])
            else:
                out[-1].append([Fraction(round(v * denominator), denominator) for v in row])
    return out


# ---------------------------------------------------------------------------
# Exact probability algebra.
# ---------------------------------------------------------------------------


def marg_x(p):
    return [sum(sum(row) for row in plane) for plane in p]


def marg_y(p):
    dx, dy, dz = _shape(p)
    return [sum(p[x][y][z] for x in range(dx) for z in range(dz)) for y in range(dy)]


def marg_z(p):
    dx, dy, dz = _shape(p)
    return [sum(p[x][y][z] for x in range(dx) for y in range(dy)) for z in range(dz)]


def marg_xy(p):
    dx, dy, dz = _shape(p)
    return [[sum(p[x][y][z] for z in range(dz)) for y in range(dy)] for x in range(dx)]


def marg_xz(p):
    dx, dy, dz = _shape(p)
    return [[sum(p[x][y][z] for y in range(dy)) for z in range(dz)] for x in range(dx)]


def marg_yz(p):
    dx, dy, dz = _shape(p)
    return [[sum(p[x][y][z] for x in range(dx)) for z in range(dz)] for y in range(dy)]


def _fill_value(strategy, d_target, target_marginal, target_given_z, z):
    if strategy == "a":
        return [Fraction(1, d_target)] * d_target
    if strategy == "b":
        return list(target_marginal)
    if strategy == "c":
        if target_given_z[z] is None:
            return list(target_marginal)
        return list(target_given_z[z])
    raise ValueError(strategy)


def _target_given_z(pair_tz, pz):
    """p(target|z) per stratum from a (target, z) table; None when p(z) = 0."""
    d_t = len(pair_tz)
    d_z = len(pz)
    out = []
    for z in range(d_z):
        if pz[z] == 0:
            out.append(None)
        else:
            out.append([pair_tz[t][z] / pz[z] for t in range(d_t)])
    return out


# ---------------------------------------------------------------------------
# Divergences (flatten any nested structure first).
# ---------------------------------------------------------------------------


def _flat(p):
    if isinstance(p, Fraction):
        return [p]
    out = []
    for item in p:
        out.extend(_flat(item))
    return out


def entropy_bits(p) -> float:
    terms = []
    for v in _flat(p):
        if v > 0:
            fv = float(v)
            terms.append(-fv * math.log2(fv))
    return math.fsum(terms)


def kl_bits(p, q) -> float:
    pf, qf = _flat(p), _flat(q)
    terms = []
    for a, b in zip(pf, qf):
        if a > 0:
            if b == 0:
                return math.inf
            terms.append(float(a) * (math.log2(a.numerator) - math.log2(a.denominator)
                                     - math.log2(b.numerator) + math.log2(b.denominator)))
    return math.fsum(terms)


def js_bits(p, q) -> float:
    pf, qf = _flat(p), _flat(q)
    if pf == qf:
        return 0.0
    terms = []
    for a, b in zip(pf, qf):
        m = (a + b) / 2
        if a > 0:
            terms.append(float(a) * math.log1p(float((a - m) / m)))
        if b > 0:
            terms.append(float(b) * math.log1p(float((b - m) / m)))
    js = math.fsum(terms) / (2.0 * math.log(2.0))
    return min(max(js, 0.0), 1.0)


def tv_dist(p, q) -> float:
    return float(sum(abs(a - b) for a, b in zip(_flat(p), _flat(q))) / 2)


# ---------------------------------------------------------------------------
# One joint under one fill rule: every quantity computed at most once.
# ---------------------------------------------------------------------------


def _pcc_pair(pair, a_codes, b_codes):
    """Pearson correlation of a two-variable table under the given codes; None when a variance is zero."""
    da, db = len(pair), len(pair[0])
    pa = [sum(pair[a]) for a in range(da)]
    pb = [sum(pair[a][b] for a in range(da)) for b in range(db)]
    ea = sum(Fraction(a_codes[a]) * pa[a] for a in range(da))
    eb = sum(Fraction(b_codes[b]) * pb[b] for b in range(db))
    eab = sum(Fraction(a_codes[a]) * Fraction(b_codes[b]) * pair[a][b] for a in range(da) for b in range(db))
    va = sum(Fraction(a_codes[a]) ** 2 * pa[a] for a in range(da)) - ea * ea
    vb = sum(Fraction(b_codes[b]) ** 2 * pb[b] for b in range(db)) - eb * eb
    if va <= 0 or vb <= 0:
        return None
    return float(eab - ea * eb) / math.sqrt(float(va * vb))


def _rmi_pair(joint, a, b):
    prod = [[a[i] * b[k] for k in range(len(b))] for i in range(len(a))]
    return math.sqrt(js_bits(joint, prod))


class _Exact:
    """The exact quantities of one joint under one fill rule, each computed on first use."""

    def __init__(self, p, strategy="b"):
        self.p = p
        self.strategy = strategy
        self.shape = _shape(p)

    # -- marginals and filled conditionals

    @cached_property
    def px(self):
        return marg_x(self.p)

    @cached_property
    def py(self):
        return marg_y(self.p)

    @cached_property
    def pz(self):
        return marg_z(self.p)

    @cached_property
    def pxy(self):
        return marg_xy(self.p)

    @cached_property
    def pxz(self):
        return marg_xz(self.p)

    @cached_property
    def pyz(self):
        return marg_yz(self.p)

    @cached_property
    def y_given_xz(self):
        """Filled conditional p(y|x,z) as nested list [x][z][y]."""
        p, (dx, dy, dz) = self.p, self.shape
        ygz = _target_given_z(self.pyz, self.pz)
        out = []
        for x in range(dx):
            out.append([])
            for z in range(dz):
                if self.pxz[x][z] > 0:
                    out[-1].append([p[x][y][z] / self.pxz[x][z] for y in range(dy)])
                else:
                    out[-1].append(_fill_value(self.strategy, dy, self.py, ygz, z))
        return out

    @cached_property
    def x_given_yz(self):
        """Filled conditional p(x|y,z) as nested list [y][z][x]."""
        p, (dx, dy, dz) = self.p, self.shape
        xgz = _target_given_z(self.pxz, self.pz)
        out = []
        for y in range(dy):
            out.append([])
            for z in range(dz):
                if self.pyz[y][z] > 0:
                    out[-1].append([p[x][y][z] / self.pyz[y][z] for x in range(dx)])
                else:
                    out[-1].append(_fill_value(self.strategy, dx, self.px, xgz, z))
        return out

    # -- reconstructions and do-rows

    @cached_property
    def q_cmi(self):
        dx, dy, dz = self.shape
        pxz, pyz, pz = self.pxz, self.pyz, self.pz
        q = [[[ZERO] * dz for _ in range(dy)] for _ in range(dx)]
        for x, y, z in _cells((dx, dy, dz)):
            if pz[z] > 0:
                q[x][y][z] = pxz[x][z] * pyz[y][z] / pz[z]
        return q

    @cached_property
    def q_pmi(self):
        dx, dy, dz = self.shape
        px, py, pz = self.px, self.py, self.pz
        xg, yg = self.x_given_yz, self.y_given_xz
        qx = [[sum(xg[y][z][x] * py[y] for y in range(dy)) for x in range(dx)] for z in range(dz)]
        qy = [[sum(yg[x][z][y] * px[x] for x in range(dx)) for y in range(dy)] for z in range(dz)]
        q = [[[ZERO] * dz for _ in range(dy)] for _ in range(dx)]
        for z in range(dz):
            if pz[z] == 0:
                continue
            mass = sum(qx[z]) * sum(qy[z])
            for x in range(dx):
                for y in range(dy):
                    q[x][y][z] = qx[z][x] * qy[z][y] * pz[z] / mass
        return q

    @cached_property
    def icmi_pair_xy(self):
        dx, dy, dz = self.shape
        px, pz, pyz, yg = self.px, self.pz, self.pyz, self.y_given_xz
        p1 = [[[yg[x][z][y] * px[x] * pz[z] for z in range(dz)] for y in range(dy)] for x in range(dx)]
        p2 = [[[px[x] * pyz[y][z] for z in range(dz)] for y in range(dy)] for x in range(dx)]
        return p1, p2

    @cached_property
    def icmi_pair_yx(self):
        dx, dy, dz = self.shape
        py, pz, pxz, xg = self.py, self.pz, self.pxz, self.x_given_yz
        p1 = [[[xg[y][z][x] * py[y] * pz[z] for z in range(dz)] for y in range(dy)] for x in range(dx)]
        p2 = [[[py[y] * pxz[x][z] for z in range(dz)] for y in range(dy)] for x in range(dx)]
        return p1, p2

    @cached_property
    def do_rows(self):
        dx, dy, dz = self.shape
        pz, yg = self.pz, self.y_given_xz
        return [[sum(yg[x][z][y] * pz[z] for z in range(dz)) for y in range(dy)] for x in range(dx)]

    @cached_property
    def p_do(self):
        rows = self.do_rows
        return [[rows[x][y] * self.px[x] for y in range(len(rows[0]))] for x in range(len(self.px))]

    @cached_property
    def p_do_margins(self):
        pdo = self.p_do
        return [sum(row) for row in pdo], [sum(pdo[x][y] for x in range(len(pdo))) for y in range(len(pdo[0]))]

    # -- total correlation

    @cached_property
    def pcc(self):
        dx, dy, _ = self.shape
        return _pcc_pair(self.pxy, list(range(dx)), list(range(dy)))

    @cached_property
    def pc(self):
        """Partial correlation with ordinal codes; None when undefined."""
        dx, dy, dz = self.shape
        cxy = self.pcc
        cxz = _pcc_pair(self.pxz, list(range(dx)), list(range(dz)))
        cyz = _pcc_pair(self.pyz, list(range(dy)), list(range(dz)))
        if cxy is None or cxz is None or cyz is None:
            return None
        den = (1 - cxz * cxz) * (1 - cyz * cyz)
        if den <= 0:
            return None
        return (cxy - cxz * cyz) / math.sqrt(den)

    @cached_property
    def mi(self):
        return entropy_bits(self.px) + entropy_bits(self.py) - entropy_bits(self.pxy)

    @cached_property
    def nmi(self):
        m, hx, hy = self.mi, entropy_bits(self.px), entropy_bits(self.py)
        to_y = m / hy if hy > 0 else 0.0
        to_x = m / hx if hx > 0 else 0.0
        return to_y, to_x, max(to_y, to_x)

    @cached_property
    def rmi(self):
        return _rmi_pair(self.pxy, self.px, self.py)

    # -- removal family

    @cached_property
    def cmi(self):
        return kl_bits(self.p, self.q_cmi)

    @cached_property
    def cmi_js(self):
        return js_bits(self.p, self.q_cmi)

    @cached_property
    def rcmi(self):
        return math.sqrt(self.cmi_js)

    @cached_property
    def pmi(self):
        return kl_bits(self.p, self.q_pmi)

    @cached_property
    def rpmi(self):
        return math.sqrt(js_bits(self.p, self.q_pmi))

    @cached_property
    def icmi_xy(self):
        return kl_bits(*self.icmi_pair_xy)

    @cached_property
    def icmi_yx(self):
        return kl_bits(*self.icmi_pair_yx)

    @cached_property
    def ricmi_xy(self):
        return math.sqrt(js_bits(*self.icmi_pair_xy))

    @cached_property
    def ricmi_yx(self):
        return math.sqrt(js_bits(*self.icmi_pair_yx))

    @cached_property
    def ricmi_two(self):
        return (self.ricmi_xy + self.ricmi_yx) / 2.0

    # -- do family

    @cached_property
    def ace(self):
        rows = self.do_rows
        best = ZERO
        for i in range(len(rows)):
            for k in range(len(rows)):
                if i == k:
                    continue
                for y in range(len(rows[0])):
                    best = max(best, rows[i][y] - rows[k][y])
        return float(best)

    @cached_property
    def nace(self):
        rows = self.do_rows
        best = ZERO
        for i in range(len(rows)):
            for k in range(i + 1, len(rows)):
                best = max(best, sum(abs(a - b) for a, b in zip(rows[i], rows[k])) / 2)
        return float(best)

    @cached_property
    def ace_kl(self):
        rows = self.do_rows
        best = 0.0
        for i in range(len(rows)):
            for k in range(len(rows)):
                if i != k:
                    best = max(best, kl_bits(rows[i], rows[k]))
        return best

    @cached_property
    def race(self):
        rows = self.do_rows
        best = 0.0
        for i in range(len(rows)):
            for k in range(i + 1, len(rows)):
                best = max(best, math.sqrt(js_bits(rows[i], rows[k])))
        return best

    @cached_property
    def mi_do(self):
        pdx, pdy = self.p_do_margins
        hy = entropy_bits(pdy)
        if hy <= 0:
            return 0.0
        return (entropy_bits(pdx) + hy - entropy_bits(self.p_do)) / hy

    @cached_property
    def rmi_do(self):
        return _rmi_pair(self.p_do, *self.p_do_margins)


# ---------------------------------------------------------------------------
# The public definitions, one joint (and fill rule) per call.
# ---------------------------------------------------------------------------


def y_given_xz(p, strategy):
    """Filled conditional p(y|x,z) as nested list [x][z][y]."""
    return _Exact(p, strategy).y_given_xz


def x_given_yz(p, strategy):
    """Filled conditional p(x|y,z) as nested list [y][z][x]."""
    return _Exact(p, strategy).x_given_yz


def pcc_xy(p, x_codes=None, y_codes=None):
    """Pearson correlation of the (x,y) marginal; None when a variance is zero."""
    dx, dy, _ = _shape(p)
    return _pcc_pair(marg_xy(p), x_codes or list(range(dx)), y_codes or list(range(dy)))


def pc_xyz(p):
    """Partial correlation with ordinal codes; None when undefined."""
    return _Exact(p).pc


def mi_xy(p) -> float:
    return _Exact(p).mi


def nmi(p):
    return _Exact(p).nmi


def rmi(p) -> float:
    return _Exact(p).rmi


def q_cmi(p):
    return _Exact(p).q_cmi


def cmi(p) -> float:
    return _Exact(p).cmi


def cmi_js(p) -> float:
    return _Exact(p).cmi_js


def rcmi(p) -> float:
    return _Exact(p).rcmi


def q_pmi(p, strategy):
    return _Exact(p, strategy).q_pmi


def pmi(p, strategy) -> float:
    return _Exact(p, strategy).pmi


def rpmi(p, strategy) -> float:
    return _Exact(p, strategy).rpmi


def icmi_pair_xy(p, strategy):
    return _Exact(p, strategy).icmi_pair_xy


def icmi_pair_yx(p, strategy):
    return _Exact(p, strategy).icmi_pair_yx


def icmi_xy(p, strategy) -> float:
    return _Exact(p, strategy).icmi_xy


def icmi_yx(p, strategy) -> float:
    return _Exact(p, strategy).icmi_yx


def ricmi_xy(p, strategy) -> float:
    return _Exact(p, strategy).ricmi_xy


def ricmi_yx(p, strategy) -> float:
    return _Exact(p, strategy).ricmi_yx


def ricmi_two(p, strategy) -> float:
    return _Exact(p, strategy).ricmi_two


def do_rows(p, strategy):
    return _Exact(p, strategy).do_rows


def ace(p, strategy) -> float:
    return _Exact(p, strategy).ace


def nace(p, strategy) -> float:
    return _Exact(p, strategy).nace


def ace_kl(p, strategy) -> float:
    return _Exact(p, strategy).ace_kl


def race(p, strategy) -> float:
    return _Exact(p, strategy).race


def p_do(p, strategy):
    return _Exact(p, strategy).p_do


def mi_do(p, strategy) -> float:
    return _Exact(p, strategy).mi_do


def rmi_do(p, strategy) -> float:
    return _Exact(p, strategy).rmi_do


def all_measures(p, strategy="b"):
    """Every measure id the registry exposes, computed from the definitions on one ``_Exact`` of the joint."""
    e = _Exact(p, strategy)
    to_y, to_x, best = e.nmi
    return {
        "pcc": e.pcc,
        "pc": e.pc,
        "mi": e.mi,
        "nmi_y": to_y,
        "nmi_x": to_x,
        "nmi_max": best,
        "rmi": e.rmi,
        "cmi": e.cmi,
        "cmi_js": e.cmi_js,
        "rcmi": e.rcmi,
        "pmi": e.pmi,
        "rpmi": e.rpmi,
        "icmi_xy": e.icmi_xy,
        "icmi_yx": e.icmi_yx,
        "ricmi_xy": e.ricmi_xy,
        "ricmi_yx": e.ricmi_yx,
        "ricmi_two": e.ricmi_two,
        "ace": e.ace,
        "nace": e.nace,
        "ace_kl": e.ace_kl,
        "race": e.race,
        "mi_do": e.mi_do,
        "rmi_do": e.rmi_do,
    }
