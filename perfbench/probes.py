"""Layer probes: each times one call into a layer on operands taken from
the workload's own documents (one per shape).

Every document is loaded fresh from its JSON line.  Calls that memoize on
the datum (flags, the dual) get a freshly loaded datum for every timed
call; the others are timed a few times on the same operands, which they
do not cache.  A probe's value is the median over documents of the
per-document median.
"""

import json
import random
import time
from statistics import median

import pipeline  # noqa: F401  (puts the library's src/ on sys.path)
from hasseforge import serialize
from hasseforge.datum import LiftedDatum
from hasseforge.flags import conj_flag, extended_flag
from hasseforge.kspace import (QuotientPresentation, annihilator,
                               induced_semilinear, ksub_from_rsub,
                               pairing_matrix, prop_dual, residue_form)
from hasseforge.linalg import Submodule, kernel, random_invertible, smith

REPS = 3
BATCH = 256

PROBES = (
    ("rings.k.add_ns", "ns"), ("rings.k.mul_ns", "ns"),
    ("rings.R.add_ns", "ns"), ("rings.R.mul_ns", "ns"), ("rings.R.inv_ns", "ns"),
    ("rings.W2.mul_ns", "ns"),
    ("rings.W.add_ns", "ns"), ("rings.W.mul_ns", "ns"), ("rings.W.inv_ns", "ns"),
    ("linalg.smith_W_us", "us"), ("linalg.random_invertible_W_us", "us"),
    ("linalg.smith_R_us", "us"), ("linalg.span_R_us", "us"),
    ("linalg.kernel_R_us", "us"), ("linalg.det_k_us", "us"),
    ("kspace.quotient_presentation_us", "us"), ("kspace.induced_semilinear_us", "us"),
    ("kspace.pairing_matrix_us", "us"), ("kspace.prop_dual_us", "us"),
    ("flags.extended_flag_us", "us"), ("flags.conj_flag_us", "us"),
    ("datum.dualize_ms", "ms"),
)
_SCALE = {"ns": 1, "us": 1e3, "ms": 1e6}


def _load(line, par=None):
    d = json.loads(line)
    if par is None:
        par = serialize.params_in(d["params"])
    return serialize.datum_from_dict(d, par), par


def _charp(D):
    return D.reduce() if isinstance(D, LiftedDatum) else D


def _time_ns(fn, *args):
    t = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - t


def _repeat_ns(fn, *args):
    return median(_time_ns(fn, *args) for _ in range(REPS))


def _per_op_ns(fn, operands):
    """ns per call of fn over a batch of operand tuples."""
    def batch():
        for ops in operands:
            fn(*ops)
    return _repeat_ns(batch) / len(operands)


def _pairs(elts):
    n = len(elts)
    return [(elts[i % n], elts[(7 * i + 3) % n]) for i in range(BATCH)]


def _singles(elts):
    return [(elts[i % len(elts)],) for i in range(BATCH)]


def _entries(D):
    return [x for m in D.F + D.V for row in m.matrix.rows for x in row]


def _ring_probes(D, par, out):
    R, W, W2, k = par.R, par.W, par.W2, par.k
    red = _charp(D)
    r_elts = _entries(red)
    w_elts = _entries(D) if isinstance(D, LiftedDatum) else [W.lift(x) for x in r_elts]
    k_elts = [c for x in r_elts for c in x]
    w2_elts = [c for x in w_elts for c in x]
    out["rings.k.add_ns"].append(_per_op_ns(k.add, _pairs(k_elts)))
    out["rings.k.mul_ns"].append(_per_op_ns(k.mul, _pairs(k_elts)))
    out["rings.R.add_ns"].append(_per_op_ns(R.add, _pairs(r_elts)))
    out["rings.R.mul_ns"].append(_per_op_ns(R.mul, _pairs(r_elts)))
    out["rings.W2.mul_ns"].append(_per_op_ns(W2.mul, _pairs(w2_elts)))
    out["rings.W.add_ns"].append(_per_op_ns(W.add, _pairs(w_elts)))
    out["rings.W.mul_ns"].append(_per_op_ns(W.mul, _pairs(w_elts)))
    r_units = [x for x in r_elts if R.is_unit(x)]
    w_units = [x for x in w_elts if W.is_unit(x)]
    if r_units:
        out["rings.R.inv_ns"].append(_per_op_ns(R.inv, _singles(r_units)))
    if w_units:
        out["rings.W.inv_ns"].append(_per_op_ns(W.inv, _singles(w_units)))


def _linalg_probes(D, par, gen_seed, out):
    R, W = par.R, par.W
    red = _charp(D)
    F_R, V_R = red.F[0].matrix, red.V[0].matrix
    F_W = D.F[0].matrix if isinstance(D, LiftedDatum) else F_R.map(W.lift, W)
    full = Submodule.full(R, par.h1)
    zero = Submodule.zero(R, par.h1)
    qfull = QuotientPresentation(R, par.h1, full, zero)
    M_k = induced_semilinear(red.F[0], qfull, qfull).matrix
    out["linalg.smith_W_us"].append(_repeat_ns(smith, F_W))
    out["linalg.random_invertible_W_us"].append(median(
        _time_ns(random_invertible, W, par.h1, random.Random(gen_seed + r))
        for r in range(REPS)))
    out["linalg.smith_R_us"].append(_repeat_ns(smith, F_R))
    out["linalg.span_R_us"].append(_repeat_ns(Submodule.span, R, par.h1, V_R.cols()))
    out["linalg.kernel_R_us"].append(_repeat_ns(kernel, F_R))
    out["linalg.det_k_us"].append(_repeat_ns(M_k.det))


def _kspace_probes(D, par, out):
    R, h1, e, f = par.R, par.h1, par.e, par.f
    red = _charp(D)
    i1 = f - 1
    ext = extended_flag(red, 0)
    ext1 = extended_flag(red, i1)
    out["kspace.quotient_presentation_us"].append(median(
        _repeat_ns(QuotientPresentation, R, h1, ext[j], ext[j - 1]) for j in range(1, 2 * e + 1)))
    maps = []
    for j in range(1, e + 1):
        src = QuotientPresentation(R, h1, ext[j], ext[j - 1])
        dst = QuotientPresentation(R, h1, ext1[j], ext1[j - 1])
        maps.append(_repeat_ns(induced_semilinear, red.V[0], src, dst))
    out["kspace.induced_semilinear_us"].append(median(maps))
    hodge, conj = red.hodge(0), red.conj(0)
    left = QuotientPresentation(R, h1, hodge, Submodule.zero(R, h1))
    right = QuotientPresentation(R, h1, Submodule.full(R, h1), annihilator(R, h1, hodge))
    out["kspace.pairing_matrix_us"].append(_repeat_ns(
        pairing_matrix, lambda u, w: residue_form(R, u, w), left, right))
    out["kspace.prop_dual_us"].append(_repeat_ns(
        prop_dual, par.k, h1 * e, ksub_from_rsub(R, hodge), ksub_from_rsub(R, conj)))


def _fresh_probes(line, par, out):
    """Memoized calls: a freshly loaded datum for every timed call."""
    ext, cj, dual = [], [], []
    for _ in range(REPS):
        ext.append(_time_ns(extended_flag, _charp(_load(line, par)[0]), 0))
        cj.append(_time_ns(conj_flag, _charp(_load(line, par)[0]), 0))
        D = _load(line, par)[0]
        dual.append(_time_ns(D.dualize))
    out["flags.extended_flag_us"].append(median(ext))
    out["flags.conj_flag_us"].append(median(cj))
    out["datum.dualize_ms"].append(median(dual))


def run_probes(results):
    """results: DocResult list.  Returns {metric: (value, unit)}."""
    out = {name: [] for name, _ in PROBES}
    for res in results:
        D, par = _load(res.line)
        _ring_probes(D, par, out)
        _linalg_probes(_load(res.line, par)[0], par, res.spec.gen_seed, out)
        _kspace_probes(_load(res.line, par)[0], par, out)
        _fresh_probes(res.line, par, out)
    return {name: (median(out[name]) / _SCALE[unit] if out[name] else 0.0, unit)
            for name, unit in PROBES}
