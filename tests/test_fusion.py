import itertools
import json
import math
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hstarcat
from bench_families import fam
from hstarcat import bundled, fusion
from hstarcat.cli import main
from hstarcat.diagram import Engine
from hstarcat.fusion import (
    FusionData,
    SphericalWeight,
    loop_eval,
    renorm_scalar,
    udf_from_weight,
    validate,
)
from hstarcat.numcore import InputError, worst

PHI = (1 + np.sqrt(5)) / 2


@pytest.mark.parametrize("name", bundled.NAMES)
def test_bundled_validate(name):
    cert = validate(bundled.load(name))
    assert cert.ok
    assert cert.residuals["pentagon"] < 1e-12
    assert cert.residuals["f_unitarity"] < 1e-12


def fibonacci_corrupt():
    """The bundled negative control, read from its packaged file without
    the validation that bundled.load runs, which it fails by design."""
    text = resources.files(hstarcat).joinpath("data/fibonacci_corrupt.json").read_text()
    return FusionData.from_json(json.loads(text))


def test_corrupt_fibonacci_fails_pentagon():
    cert = validate(fibonacci_corrupt())
    assert not cert.ok
    assert cert.failed_axiom == "pentagon"
    # the corruption keeps F unitary on purpose
    assert cert.residuals["f_unitarity"] < 1e-12


def test_load_rejects_negative_control():
    with pytest.raises(InputError):
        bundled.load("fibonacci_corrupt")


def test_fpdims():
    fib = bundled.load("fibonacci")
    assert fib.fpdim("t") == pytest.approx(PHI)
    assert fib.fpdim_total() == pytest.approx(1 + PHI**2)
    ising = bundled.load("ising")
    assert ising.fpdim("s") == pytest.approx(np.sqrt(2))
    assert ising.fpdim_total() == pytest.approx(4.0)


def _gauged_ty(n):
    return fam.gauge(fam.ty_zn(n, -1), np.random.default_rng(n))


def _fpdim_cases():
    """The bundled categories, plain and twisted Vec(Z_2..12), and plain
    and gauged TY(Z_2..7), each with the exact FPdim of every simple."""
    cases = []
    for name in bundled.NAMES:
        exact = {"t": (1 + 5**0.5) / 2, "s": math.sqrt(2)}
        cases.append((name, lambda name=name: bundled.load(name), exact))
    for n in range(2, 13):
        for p in (0, 1):
            cases.append((f"vec{n}_{p}", lambda n=n, p=p: fam.vec_zn(n, p), {}))
    for n in range(2, 8):
        exact = {"m": math.sqrt(n)}
        cases.append((f"ty{n}", lambda n=n: fam.ty_zn(n), exact))
        cases.append((f"ty{n}_gauged", lambda n=n: _gauged_ty(n), exact))
    return cases


FPDIM_CASES = _fpdim_cases()


@pytest.mark.parametrize("name,make,exact", FPDIM_CASES, ids=[c[0] for c in FPDIM_CASES])
def test_fpdims_are_exact(name, make, exact):
    # every other simple is invertible; compared with ==, not approx
    data = make()
    assert {c: data.fpdim(c) for c in data.simples} == {c: exact.get(c, 1.0) for c in data.simples}


def test_a_category_without_a_unit_is_a_schema_error():
    with pytest.raises(InputError, match="no unit summand"):
        FusionData((), (), {}, {}, {}, {})


def test_components():
    m2 = bundled.load("m2_hilb")
    comps = m2.components()
    assert len(comps) == 1  # connected by the off-diagonal simples
    assert comps is m2.components()  # found once, with the data's tables
    z2 = bundled.load("hilb_z2")
    assert len(z2.components()) == 1


def test_udf_dims_formula():
    m2 = bundled.load("m2_hilb")
    psi = SphericalWeight((1.0, 4.0))
    udf = udf_from_weight(m2, psi)
    # d_c = sqrt(psi_s psi_t) FPdim(c)
    assert udf.d("11") == pytest.approx(1.0)
    assert udf.d("22") == pytest.approx(4.0)
    assert udf.d("12") == pytest.approx(2.0)
    # the one-sided dims d_c / d_{s(c)} and d_c / d_{t(c)}
    assert udf.d("12") / udf.d(m2.s("12")) == pytest.approx(2.0)
    assert udf.d("12") / udf.d(m2.t("12")) == pytest.approx(0.5)


@pytest.mark.parametrize("name", bundled.NAMES)
def test_loops_match_dims(name):
    data = bundled.load(name)
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = SphericalWeight(tuple(rng.uniform(0.2, 3.0, len(data.units))))
        udf = udf_from_weight(data, psi)
        for c in data.simples:
            assert abs(loop_eval(udf, c, "L") - udf.d(c) / udf.d(data.s(c))) < 1e-9
            assert abs(loop_eval(udf, c, "R") - udf.d(c) / udf.d(data.t(c))) < 1e-9


LOOP_CASES = [(name, lambda name=name: bundled.load(name)) for name in bundled.NAMES] + [
    ("vec5_twisted_gauged", lambda: fam.gauge(fam.vec_zn(5, 2), np.random.default_rng(31))),
    ("ty3_gauged", lambda: fam.gauge(fam.ty_zn(3, -1), np.random.default_rng(32))),
    ("ty4", lambda: fam.ty_zn(4)),
]


@pytest.mark.parametrize("name,make", LOOP_CASES, ids=[n for n, _ in LOOP_CASES])
def test_engine_loops_equal_loop_eval(monkeypatch, name, make):
    # fusion udf evaluates its loops on the command's one engine; loop_eval
    # reads the same cup coefficient off the udf alone and builds no engine
    data = make()
    built = []
    init = Engine.__init__
    rng = np.random.default_rng(12)
    for p in [tuple(1.0 for _ in data.units), tuple(rng.uniform(0.2, 3.0, len(data.units)))]:
        eng = fusion.dual_engine(data, SphericalWeight(p))
        udf = udf_from_weight(data, SphericalWeight(p))
        assert (udf.dims, udf.alpha, udf.beta) == (eng.udf.dims, eng.udf.alpha, eng.udf.beta)
        monkeypatch.setattr(Engine, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        for c in data.simples:
            for side in "LR":
                assert eng.loop(c, side).hex() == loop_eval(udf, c, side).hex()
        for loop in (eng.loop, lambda c, side: loop_eval(udf, c, side)):
            with pytest.raises(KeyError, match="unknown simple zz"):
                loop("zz", "L")
            with pytest.raises(InputError, match="side must be 'L' or 'R'"):
                loop(data.simples[0], "X")
        monkeypatch.undo()
    assert not built


def test_renorm_scalar_formula():
    fib = bundled.load("fibonacci")
    psi = SphericalWeight((1.3,))
    v, pre = renorm_scalar(udf_from_weight(fib, psi))
    expected = fib.fpdim_total() * 1.3**2 / 1.3  # FPdim * psi(id) / k^2, k = psi_1... v_1
    assert v["1"] == pytest.approx(expected)
    assert pre["1"] == pytest.approx(1.0 / expected)
    # m2 with non-uniform psi: v constant across units
    m2 = bundled.load("m2_hilb")
    v2, _ = renorm_scalar(udf_from_weight(m2, SphericalWeight((1.0, 2.0))))
    vals = list(v2.values())
    assert vals[0] == pytest.approx(vals[1])


def test_json_round_trip():
    for name in bundled.NAMES:
        data = bundled.load(name)
        back = FusionData.from_json(data.to_json())
        assert back.simples == data.simples
        assert back.N == data.N
        for k, m in data.F.items():
            assert np.allclose(back.F[k], m)


def test_fusion_data_is_read_only_once_built():
    ising = bundled.load("ising")
    block = np.array([[0, 1], [1, 0]], dtype=complex)
    data = _with_block(ising, ("s", "s", "s", "s"), block)
    edits = [
        (data.N, ("s", "s", "p"), 2),
        (data.F, ("s", "s", "s", "s"), block),
        (data.grading, "s", ("1", "1")),
        (data.dual, "s", "p"),
    ]
    for table, key, value in edits:
        with pytest.raises(TypeError):
            table[key] = value
        with pytest.raises(TypeError):
            del table[key]
    # the stored block, a plain block read through f_matrix, and the
    # identity of a unit argument
    keys = [("s", "s", "s", "s"), ("s", "p", "s", "p"), ("1", "s", "s", "1")]
    read = [data.F[("s", "s", "s", "s")]] + [data.f_matrix(*key) for key in keys]
    eng = fusion.dual_engine(ising, SphericalWeight((1.0,)))
    s = eng.simple_obj("s")
    read.append(eng.group_last((s, s), s, "s")[2])
    for m in read:
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
    # the constructor froze a copy: the caller's array stays writeable
    block[0, 0] = 2.0
    assert data.F[("s", "s", "s", "s")][0, 0] == 0.0


def test_f_blocks_are_views_of_one_flat_array():
    # F is one read-only array, each block a view into it; the caller's
    # blocks are copied into it and stay writeable
    for name in bundled.NAMES:
        data = bundled.load(name)
        for m in data.F.values():
            assert np.shares_memory(m, data.f_entries) and not m.flags.writeable
    block = np.array([[0, 1], [1, 0]], dtype=complex)
    data = _with_block(bundled.load("ising"), ("s", "s", "s", "s"), block)
    assert data.F[("s", "s", "s", "s")].base is data.f_entries
    assert block.flags.writeable and not np.shares_memory(block, data.f_entries)
    assert not data.f_entries.flags.writeable
    assert data.f_entries.size == sum(m.size for m in data.F.values())


def test_schema_errors():
    with pytest.raises(InputError):
        FusionData(("a", "a"), ("a",), {"a": ("a", "a")}, {"a": "a"}, {}, {})
    with pytest.raises(InputError):
        FusionData(("a",), ("b",), {"a": ("a", "a")}, {"a": "a"}, {}, {})


def _with_block(data, key, block):
    """data with the F block at key replaced, built through the
    constructor, since a FusionData is read-only once built."""
    F = {**data.F, key: block}
    return FusionData(data.simples, data.units, data.grading, data.dual, data.N, F)


def _overflowing_fibonacci():
    """Fibonacci with F^{ttt}_t[0, 0] = 1e200 + 1e200i: finite, so
    construction accepts it, but its square overflows, so its unitarity
    defect and the pentagon gaps through it are NaN."""
    data = bundled.load("fibonacci")
    block = data.f_matrix("t", "t", "t", "t").copy()
    block[0, 0] = 1e200 + 1e200j
    return _with_block(data, ("t", "t", "t", "t"), block)


def _overflowing_one_by_one():
    """Fibonacci with the 1x1 F^{ttt}_1 = [[1e200 + 1e200i]], whose
    unitarity defect is taken in one array expression, not by
    unitarity_defect."""
    block = np.array([[1e200 + 1e200j]])
    return _with_block(bundled.load("fibonacci"), ("t", "t", "t", "1"), block)


def test_an_overflowing_f_entry_rejects_on_f_unitarity():
    for data in (_overflowing_fibonacci(), _overflowing_one_by_one()):
        cert = validate(data)
        assert not cert.ok
        assert cert.failed_axiom == "F-unitarity"
        assert np.isnan(cert.residuals["f_unitarity"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["F"]["t,t,t,t"][0].__setitem__(0, [float("nan"), 0.0]),
        lambda d: d["dual"].update(t="zz"),
        lambda d: d["grading"].update(t=["1", "q"]),
        lambda d: d["N"].update({"t,zz,t": 1}),
        lambda d: d["F"].update({"t,t,zz,t": [[[1.0, 0.0]]]}),
        lambda d: d["N"].update({"t,t,t": 1e300}),
        lambda d: d["N"].update({"t,t,t": 1.5}),
        lambda d: d["N"].update({"t,t,t": float("nan")}),
        lambda d: d["N"].update({"t,t,t": float("inf")}),
        # an F entry is exactly an [re, im] pair
        lambda d: d["F"]["t,t,t,t"][0].__setitem__(0, 0.618),
        lambda d: d["F"]["t,t,t,t"][0][0].append(123.0),
        lambda d: d["F"]["t,t,t,t"][0][0].pop(),
    ],
    ids=[
        "nan_f_entry",
        "unknown_dual",
        "non_unit_grading",
        "unknown_n_label",
        "unknown_f_label",
        "n_overflow",
        "n_fraction",
        "n_nan",
        "n_inf",
        "f_entry_bare_number",
        "f_entry_three_parts",
        "f_entry_one_part",
    ],
)
def test_bad_entries_are_schema_errors(edit):
    doc = bundled.load("fibonacci").to_json()
    edit(doc)
    with pytest.raises(InputError):
        FusionData.from_json(doc)


def _multiplicity_two(f_xxx_x, f_xxx_0):
    """The fusion ring x (x) x = 1 + 2x with the given F^{xxx}_x (5x5) and
    F^{xxx}_0 (2x2); all other blocks have a unit argument."""
    return FusionData(
        ("0", "x"),
        ("0",),
        {"0": ("0", "0"), "x": ("0", "0")},
        {"0": "0", "x": "x"},
        {("x", "x", "0"): 1, ("x", "x", "x"): 2},
        {("x", "x", "x", "x"): f_xxx_x, ("x", "x", "x", "0"): f_xxx_0},
    )


DFT5 = np.exp(-2j * np.pi * np.outer(range(5), range(5)) / 5) / np.sqrt(5)
ROT = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


def test_multiplicity_two_pentagon_residual_and_gauge():
    cert = validate(_multiplicity_two(DFT5, ROT))
    assert not cert.ok
    assert cert.failed_axiom == "pentagon"
    assert abs(cert.residuals["pentagon"] - 4.261523391944277) < 1e-12
    # change of basis u on the vertex space V(x, x; x); every other vertex
    # space is one-dimensional and kept: a left-tree basis (e; mu, nu) moves
    # by the Kronecker product of its two vertex changes, and so does a
    # right-tree basis, so F' = R^T F conj(C)
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    big = np.eye(5, dtype=complex)
    big[1:, 1:] = np.kron(u, u)
    gauged = _multiplicity_two(big.T @ DFT5 @ big.conj(), u.T @ ROT @ u.conj())
    assert abs(validate(gauged).residuals["pentagon"] - 4.261523391944277) < 1e-12


def _reference_gaps(data):
    """The label-keyed pentagon loop through the public accessors: the gap
    of every (a, b, c, d, u) with start and final trees, unit legs
    included. Every F block is read first, in label order, so the first
    block with differing tree counts or a stored block of the wrong shape
    raises InputError, as FusionData.f_matrix does. validate's pentagon
    residual must reproduce the loop exactly: it multiplies and adds the
    same numbers in the same order."""
    S = data.simples
    for key in itertools.product(S, repeat=4):
        data.f_matrix(*key)

    def fmat(x, y, z, w):
        rows = {r: i for i, r in enumerate(data.tree_rows(x, y, z, w))}
        cols = {k: i for i, k in enumerate(data.tree_cols(x, y, z, w))}
        return data.f_matrix(x, y, z, w), rows, cols

    def products(x, y):
        return [z for z in S if data.n(x, y, z)]

    gaps = {}
    for a, b, c, d, u in itertools.product(S, repeat=5):
        if data.t(a) != data.s(b) or data.t(b) != data.s(c) or data.t(c) != data.s(d):
            continue
        start = [
            (e, m1, g, m2, m3)
            for e in S for m1 in range(data.n(a, b, e))
            for g in S for m2 in range(data.n(e, c, g))
            for m3 in range(data.n(g, d, u))
        ]
        final = [
            (f2, l2, f3, l3, k3)
            for f2 in S for l2 in range(data.n(a, f2, u))
            for f3 in S for l3 in range(data.n(b, f3, f2))
            for k3 in range(data.n(c, d, f3))
        ]
        if not start or not final:
            continue
        fidx = {x: i for i, x in enumerate(final)}
        pa = np.zeros((len(final), len(start)), dtype=complex)
        pb = np.zeros((len(final), len(start)), dtype=complex)
        for si, (e, m1, g, m2, m3) in enumerate(start):
            m_abc, r_abc, c_abc = fmat(a, b, c, g)
            for f1 in products(b, c):
                for k1 in range(data.n(b, c, f1)):
                    for l1 in range(data.n(a, f1, g)):
                        co1 = m_abc[r_abc[(e, m1, m2)], c_abc[(f1, k1, l1)]]
                        if co1 == 0:
                            continue
                        m_afd, r_afd, c_afd = fmat(a, f1, d, u)
                        for f2 in products(f1, d):
                            for k2 in range(data.n(f1, d, f2)):
                                for l2 in range(data.n(a, f2, u)):
                                    co2 = co1 * m_afd[r_afd[(g, l1, m3)], c_afd[(f2, k2, l2)]]
                                    if co2 == 0:
                                        continue
                                    m_bcd, r_bcd, c_bcd = fmat(b, c, d, f2)
                                    for f3 in products(c, d):
                                        for k3 in range(data.n(c, d, f3)):
                                            for l3 in range(data.n(b, f3, f2)):
                                                co3 = co2 * m_bcd[
                                                    r_bcd[(f1, k1, k2)], c_bcd[(f3, k3, l3)]
                                                ]
                                                if co3 != 0:
                                                    pa[fidx[(f2, l2, f3, l3, k3)], si] += co3
            m_ecd, r_ecd, c_ecd = fmat(e, c, d, u)
            for h in products(c, d):
                for tau in range(data.n(c, d, h)):
                    for sig in range(data.n(e, h, u)):
                        co1 = m_ecd[r_ecd[(g, m2, m3)], c_ecd[(h, tau, sig)]]
                        if co1 == 0:
                            continue
                        m_abh, r_abh, c_abh = fmat(a, b, h, u)
                        for k in products(b, h):
                            for rho in range(data.n(b, h, k)):
                                for om in range(data.n(a, k, u)):
                                    co2 = co1 * m_abh[r_abh[(e, m1, sig)], c_abh[(k, rho, om)]]
                                    if co2 != 0:
                                        pb[fidx[(k, om, h, rho, tau)], si] += co2
        gaps[(a, b, c, d, u)] = float(np.linalg.norm(pa - pb))
    return gaps


def _reference_pentagon(data):
    """The largest reference gap, NaN if any gap is NaN."""
    worst = 0.0
    for gap in _reference_gaps(data).values():
        if gap != gap:
            return gap
        worst = max(worst, gap)
    return worst


def _phase_gauge(data, seed):
    """A random vertex-phase gauge of multiplicity-free data, phase 1 on
    vertices with a unit leg: F'[e, f] = u(a,b;e) u(e,c;d) F[e, f] /
    (u(b,c;f) u(a,f;d)). Every F block gets complex entries, and a valid
    pentagon residual stays at roundoff, where the order of the arithmetic
    shows in the last bits."""
    rng = np.random.default_rng(seed)
    phases = {}

    def u(x, y, z):
        if x in data.units or y in data.units:
            return 1.0
        return phases.setdefault((x, y, z), np.exp(2j * np.pi * rng.random()))

    F = {}
    for a, b, c, d in itertools.product(data.simples, repeat=4):
        rows = data.tree_rows(a, b, c, d)
        if not rows or a in data.units or b in data.units or c in data.units:
            continue
        left = np.array([u(a, b, e) * u(e, c, d) for e, _, _ in rows])
        right = np.array([u(b, c, f) * u(a, f, d) for f, _, _ in data.tree_cols(a, b, c, d)])
        F[(a, b, c, d)] = left[:, None] * data.f_matrix(a, b, c, d) / right[None, :]
    return FusionData(data.simples, data.units, data.grading, data.dual, data.N, F)


REFERENCE_CASES = [(name, lambda name=name: bundled.load(name)) for name in bundled.NAMES]
REFERENCE_CASES.append(("fibonacci_corrupt", fibonacci_corrupt))
REFERENCE_CASES += [
    (f"{name}_gauged", lambda name=name: _phase_gauge(bundled.load(name), 5))
    for name in ("fibonacci", "ising", "m2_hilb")
]
REFERENCE_CASES.append(("multiplicity_two", lambda: _multiplicity_two(DFT5, ROT)))


def _ising_permuted():
    """Ising with F^{sss}_s replaced by a permutation matrix: unitary, with
    exact zeros, and not a solution of the pentagon."""
    return _with_block(
        bundled.load("ising"), ("s", "s", "s", "s"), np.array([[0, 1], [1, 0]], dtype=complex)
    )


# instances with two to five start trees (TY), and exact zeros in a block
REFERENCE_CASES += [
    ("ty4_gauged", lambda: fam.gauge(fam.ty_zn(4, -1), np.random.default_rng(7))),
    ("vec5_gauged", lambda: fam.gauge(fam.vec_zn(5, 2), np.random.default_rng(8))),
    ("ising_permuted", _ising_permuted),
]


def _strict_unit_n(data, a, b, c):
    """N_{ab}^c by the strict-unit rule, one label triple at a time: a
    unit argument fixes the multiplicity, whatever N stores for it."""
    if a in data.units:
        return 1 if (b == c and data.s(b) == data.s(a)) else 0
    if b in data.units:
        return 1 if (a == c and data.t(a) == data.s(b)) else 0
    return data.N.get((a, b, c), 0)


def _stored_unit_entries():
    """Fibonacci whose stored N contradicts the strict-unit rule at two
    entries with a unit argument."""
    return _edited("fibonacci", lambda d: d["N"].update({"1,t,1": 1, "t,1,t": 3}))


TABLE_CASES = REFERENCE_CASES + [("stored_unit_entries", _stored_unit_entries)]


@pytest.mark.parametrize("name,make", TABLE_CASES, ids=[n for n, _ in TABLE_CASES])
def test_tables_match_label_accessors(name, make):
    data = make()
    overridden = [k for k in data.N if data.N[k] != _strict_unit_n(data, *k)]
    assert bool(overridden) == (name == "stored_unit_entries")
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(data.simples), repeat=3):
        assert data.n(a, b, c) == data.table[i, j, k] == _strict_unit_n(data, a, b, c)
    for a, b in itertools.product(data.simples, repeat=2):
        products = [(c, m) for c in data.simples if (m := _strict_unit_n(data, a, b, c))]
        assert list(data.fusion_products(a, b)) == products
    assert validate(data).residuals["pentagon"] == _reference_pentagon(data)


@pytest.mark.parametrize("name,make", REFERENCE_CASES, ids=[n for n, _ in REFERENCE_CASES])
def test_unit_leg_pentagon_instances_vanish_exactly(name, make):
    # validate's pentagon skips every instance with a unit among a, b, c, d
    data = make()
    gaps = _reference_gaps(data)
    legs = [gap for key, gap in gaps.items() if any(x in data.units for x in key[:4])]
    assert legs and all(gap == 0.0 for gap in legs)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunks_of_start_trees_match_the_reference(monkeypatch, chunk):
    # small chunks split instances with several start trees between them
    monkeypatch.setattr(fusion, "_CHUNK", chunk)
    for name in ("fibonacci_gauged", "multiplicity_two", "ty4_gauged"):
        data = dict(REFERENCE_CASES)[name]()
        assert validate(data).residuals["pentagon"] == _reference_pentagon(data)


@pytest.mark.parametrize(
    "name,numbered",
    [("hilb_z3", False), ("m2_hilb_gauged", False), ("vec5_gauged", False),
     ("fibonacci", True), ("multiplicity_two", True), ("ty4_gauged", True)],
)
def test_final_trees_are_numbered_only_when_an_instance_has_several(monkeypatch, name, numbered):
    # an instance with one start tree has one final tree, so data whose
    # every instance has one (every pointed input) skips the numbering and
    # still matches the reference loop
    cols = []
    terms = fusion._terms

    def recorded(tr, vals, P, Q, R, col):
        cols.append(col)
        return terms(tr, vals, P, Q, R, col)

    monkeypatch.setattr(fusion, "_terms", recorded)
    data = dict(REFERENCE_CASES)[name]()
    assert validate(data).residuals["pentagon"] == _reference_pentagon(data)
    assert cols and all((col is not None) == numbered for col in cols)


def test_permuted_ising_rejects_on_pentagon():
    cert = validate(_ising_permuted())
    assert (cert.ok, cert.failed_axiom) == (False, "pentagon")
    assert cert.residuals["f_unitarity"] == 0.0


def test_nan_entry_gives_nan_pentagon_and_rejects_on_f_unitarity():
    data = _overflowing_fibonacci()
    cert = validate(data)
    assert np.isnan(cert.residuals["pentagon"])
    # the reference multiplies huge entries with no errstate, so it warns
    with pytest.warns(RuntimeWarning):
        assert np.isnan(_reference_pentagon(data))
    assert (cert.ok, cert.failed_axiom) == (False, "F-unitarity")


def test_nan_pentagon_gap_rejects_on_pentagon(monkeypatch):
    data = bundled.load("fibonacci")
    monkeypatch.setattr(fusion, "_pentagon_gaps", lambda blocks: np.array([0.0, np.nan, 0.0]))
    cert = validate(data)
    assert (cert.ok, cert.failed_axiom) == (False, "pentagon")
    assert np.isnan(cert.residuals["pentagon"])


@pytest.mark.parametrize("theta", [np.nan, 0.0, 1e-15])
def test_degenerate_zigzag_scalar_fails_closed(monkeypatch, theta):
    # a NaN pairing used to pass abs(theta) < cut and install NaN cups
    monkeypatch.setattr(Engine, "zigzag_scalar", lambda self, c: complex(theta))
    with pytest.raises(InputError, match="degenerate duality pairing"):
        fusion.dual_engine(bundled.load("fibonacci"), SphericalWeight((1.0,)))


def test_dual_engine_names_a_dimension_it_cannot_divide_by():
    # psi_11 psi_22 = 1e-330 underflows to 0, so d_12 = sqrt(0) FPdim(12)
    # is 0, once a bare ZeroDivisionError in the cup coefficients
    with pytest.raises(InputError, match="^d_12 = 0.0 is zero, subnormal or not finite$"):
        fusion.dual_engine(bundled.load("m2_hilb"), SphericalWeight((1e-170, 1e-160)))


def _random_ring(labels, mult, dual, seed):
    """A ring on the labels with unit "0": N[a, b, c] = mult for the
    non-unit a, b in product order, and a random unitary F block wherever
    the tree counts agree and no argument is a unit; the tree counts are
    read off the ring without F."""
    grading = {c: ("0", "0") for c in labels}
    N = {key: m for key, m in zip(itertools.product(labels[1:], labels[1:], labels), mult) if m}
    ring = FusionData(labels, ("0",), grading, dict(zip(labels, dual)), N, {})
    rng = np.random.default_rng(seed)
    F = {}
    for key in itertools.product(labels[1:], labels[1:], labels[1:], labels):
        r = len(ring.tree_rows(*key))
        if r and r == len(ring.tree_cols(*key)):
            q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
            F[key] = q
    return FusionData(labels, ("0",), grading, ring.dual, N, F)


def _edited(name, edit):
    doc = bundled.load(name).to_json()
    edit(doc)
    return FusionData.from_json(doc)


@pytest.mark.parametrize(
    "name,edit,problems",
    [
        (
            "hilb_z3",
            lambda d: d["dual"].update(g="g", h="g"),
            {"dual not involutive at h", "dual pairing multiplicity wrong at g",
             "Frobenius reciprocity fails at ('1', 'g', 'g')"},
        ),
        ("m2_hilb", lambda d: d["dual"].update({"12": "12"}), {"dual grading mismatch at 12"}),
        (
            "m2_hilb",
            lambda d: d["N"].update({"12,12,11": 1}),
            {"grading incompatibility in N at ('12', '12', '11')"},
        ),
    ],
    ids=["dual", "dual_grading", "n_grading"],
)
def test_grading_and_duality_problems_reject_on_their_axiom(name, edit, problems):
    data = _edited(name, edit)
    cert = validate(data)
    assert (cert.ok, cert.failed_axiom) == (False, "grading/duality")
    assert cert.residuals["integer_checks"] == 1.0
    assert problems <= set(cert.details["problems"])
    assert cert.details["problems"] == _reference_problems(data)[:5]


def _reference_problems(data):
    """validate's integer problems by label loops, in its order: the dual
    of each simple, then the grading and the strict-unit rule at each
    stored entry of N, then Frobenius reciprocity in index order."""
    problems = []
    for c in data.simples:
        cb = data.dual[c]
        if data.dual.get(cb) != c:
            problems.append(f"dual not involutive at {c}")
        if data.grading[cb] != (data.t(c), data.s(c)):
            problems.append(f"dual grading mismatch at {c}")
        if data.n(c, cb, data.s(c)) != 1 or data.n(cb, c, data.t(c)) != 1:
            problems.append(f"dual pairing multiplicity wrong at {c}")
    for (a, b, c), m in data.N.items():
        if data.t(a) != data.s(b) or data.s(c) != data.s(a) or data.t(c) != data.t(b):
            problems.append(f"grading incompatibility in N at {(a, b, c)}")
        if (a in data.units or b in data.units) and m != data.n(a, b, c):
            problems.append(f"stored N breaks the strict-unit rule at {(a, b, c)}")
    for a, b, c in itertools.product(data.simples, repeat=3):
        n, ab, cb = data.n(a, b, c), data.dual[a], data.dual[b]
        if n != data.n(ab, c, b) or n != data.n(c, cb, a):
            problems.append(f"Frobenius reciprocity fails at {(a, b, c)}")
    return problems


def test_stored_unit_entries_reject_on_grading_and_duality(tmp_path, capsys):
    # construction puts the strict-unit rule in place of a stored entry
    # with a unit argument; validate rejects each stored entry that the
    # rule overrode, and so does the CLI on the JSON, which keeps them
    data = _stored_unit_entries()
    cert = validate(data)
    assert (cert.ok, cert.failed_axiom) == (False, "grading/duality")
    assert cert.residuals["integer_checks"] == 1.0
    assert cert.details["problems"] == [
        "stored N breaks the strict-unit rule at ('1', 't', '1')",
        "stored N breaks the strict-unit rule at ('t', '1', 't')",
    ]
    path = tmp_path / "stored_unit_entries.json"
    path.write_text(json.dumps(data.to_json()))
    assert main(["fusion", "validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["violated_axioms"] == {"fusion": "grading/duality"}


def _tree_count_ring():
    """x (x) x = 1 + y, x (x) y = x + y, y (x) y = 1 + x, all self-dual:
    graded, dual and Frobenius-reciprocal, but not associative, since
    (x x) y = 1 + x + y and x (x y) = 1 + x + 2y."""
    return _random_ring(("0", "x", "y"), [1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0], ("0", "x", "y"), 0)


def test_tree_count_mismatch_alone_rejects_on_associativity():
    cert = validate(_tree_count_ring())
    assert (cert.ok, cert.failed_axiom) == (False, "fusion-associativity")
    assert cert.residuals == {"integer_checks": 1.0}
    assert cert.details == {"problems": [], "problem": "tree count mismatch at F^xxy_y"}


def test_duality_problem_is_named_before_a_tree_count_mismatch():
    # N[g, g, h] moved to N[g, g, g]: Frobenius reciprocity fails, and so
    # do the tree counts of F^{ggh}_1; the first check in order is named
    data = _edited("hilb_z3", lambda d: (d["N"].pop("g,g,h"), d["N"].update({"g,g,g": 1})))
    cert = validate(data)
    assert (cert.ok, cert.failed_axiom) == (False, "grading/duality")
    assert cert.residuals == {"integer_checks": 1.0}
    assert cert.details["problem"] == "tree count mismatch at F^ggh_1"
    assert "Frobenius reciprocity fails at ('g', 'g', 'g')" in cert.details["problems"]


@st.composite
def _rings(draw):
    labels = ("0", "1", "2")[: draw(st.integers(2, 3))]
    k = len(labels)
    mult = draw(st.lists(st.integers(0, 2), min_size=(k - 1) ** 2 * k, max_size=(k - 1) ** 2 * k))
    dual = draw(st.lists(st.sampled_from(labels), min_size=k, max_size=k))
    return _random_ring(labels, mult, dual, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=_rings())
def test_random_rings_match_the_reference(data):
    # a non-associative ring has blocks whose tree counts differ: the
    # reference raises on the first, and validate names the same block
    cert = validate(data)
    try:
        want = _reference_pentagon(data)
    except InputError as exc:
        (a, b, c, d), r, k = _first_count_mismatch(data)
        assert str(exc) == f"F^{a},{b},{c}_{d}: tree counts differ ({r} vs {k})"
        assert cert.details["problem"] == f"tree count mismatch at F^{a}{b}{c}_{d}"
    else:
        assert cert.residuals["pentagon"] == want


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=_rings())
def test_random_rings_list_the_reference_problems(data):
    assert validate(data).details["problems"] == _reference_problems(data)[:5]


def _raised(f, data):
    with pytest.raises(InputError) as exc:
        f(data)
    return str(exc.value)


@pytest.mark.parametrize("shape", [(3, 3), (2, 1), (4,)])
def test_a_wrong_shaped_block_raises_as_f_matrix_does(shape):
    data = _with_block(bundled.load("ising"), ("s", "s", "s", "s"), np.ones(shape))
    message = _raised(lambda d: d.f_matrix("s", "s", "s", "s"), data)
    assert message == f"F^s,s,s_s has shape {shape}"
    assert _raised(validate, data) == message


def test_the_first_wrong_shaped_block_in_index_order_is_named():
    # stored in the reverse of index order, so F's order would name the other
    ising = bundled.load("ising")
    F = {("p", "s", "s", "p"): np.ones((2, 2)), **ising.F, ("s", "p", "s", "p"): np.ones((1, 2))}
    data = FusionData(ising.simples, ising.units, ising.grading, ising.dual, ising.N, F)
    message = "F^s,p,s_p has shape (1, 2)"
    assert _raised(validate, data) == message


def test_a_wrong_shaped_block_with_a_unit_argument_is_ignored():
    # the strict-unit rule makes it the identity, whatever is stored
    ising = bundled.load("ising")
    data = _with_block(ising, ("s", "1", "s", "1"), np.ones((3, 3)))
    assert np.array_equal(data.f_matrix("s", "1", "s", "1"), np.eye(1))
    assert repr(validate(data)) == repr(validate(ising))


def test_no_block_past_a_tree_count_mismatch_is_read():
    # F^xxy_y is the first block in index order whose tree counts differ:
    # a wrong-shaped block before it raises, one after it is never read
    ring = _tree_count_ring()
    before, after = ("x", "x", "x", "x"), ("y", "y", "y", "y")
    for key in (before, after):
        assert len(ring.tree_rows(*key)) == len(ring.tree_cols(*key)) == 2
    late = _with_block(ring, after, np.ones((3, 3)))
    assert repr(validate(late)) == repr(validate(ring))
    assert validate(late).details["problem"] == "tree count mismatch at F^xxy_y"
    early = _with_block(ring, before, np.ones((3, 3)))
    message = "F^x,x,x_x has shape (3, 3)"
    assert _raised(validate, early) == message


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_counts_match_the_einsum_reference(n):
    # entries up to 3, so that vertices carry multiplicities
    N = np.random.default_rng(40 + n).integers(0, 4, (n, n, n))
    tr = fusion._Trees(N)
    left, right = np.einsum("abe,ecd->abcd", N, N).ravel(), np.einsum("bcf,afd->abcd", N, N).ravel()
    assert np.array_equal(tr.lin, (left | right).nonzero()[0])
    assert np.array_equal(tr.dims, left[tr.lin]) and np.array_equal(tr.cols, right[tr.lin])
    # every tree, block by block in canonical order, by the loops of
    # tree_rows and tree_cols over vertex numbers in index order
    first = np.add.accumulate(N.ravel()) - N.ravel()

    def v(x, y, z, mu):
        return first[(x * n + y) * n + z] + mu

    rows, cols = [], []
    for x, y, z, w in itertools.product(range(n), repeat=4):
        for e in range(n):
            rows += [(v(x, y, e, mu), v(e, z, w, nu)) for mu in range(N[x, y, e]) for nu in range(N[e, z, w])]
        for f in range(n):
            cols += [(v(y, z, f, ka), v(x, f, w, la)) for ka in range(N[y, z, f]) for la in range(N[x, f, w])]
    assert list(zip(tr.rv1.tolist(), tr.rv2.tolist())) == rows
    assert list(zip(tr.cv3.tolist(), tr.cv4.tolist())) == cols


def test_validate_builds_no_dense_tree_count_table():
    # one int64 table over all (a, b, c, d) of Vec(Z_40) takes 40**4 * 8
    # bytes, 19.5 MiB; the vertex join takes a few MiB there
    data = fam.vec_zn(40)
    tracemalloc.start()
    try:
        fusion._Blocks(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40**4 * 8


def _first_count_mismatch(data):
    """The first (a, b, c, d) in index order whose tree bases differ in
    size, by the label accessors, with both sizes."""
    for key in itertools.product(data.simples, repeat=4):
        r, k = len(data.tree_rows(*key)), len(data.tree_cols(*key))
        if r != k:
            return key, r, k
    return None


@pytest.mark.parametrize("seed", range(6))
def test_rings_with_multiplicities_keep_their_tree_count_mismatch(seed):
    rng = np.random.default_rng(seed)
    ring = _random_ring(("0", "1", "2"), rng.integers(0, 4, 12).tolist(), ("0", "2", "1"), seed)
    first = _first_count_mismatch(ring)
    assert first is not None and max(ring.N.values()) > 1
    (a, b, c, d), r, k = first
    cert = validate(ring)
    assert cert.failed_axiom in ("grading/duality", "fusion-associativity")
    assert cert.details["problem"] == f"tree count mismatch at F^{a}{b}{c}_{d}"
    message = f"F^{a},{b},{c}_{d}: tree counts differ ({r} vs {k})"
    assert _raised(lambda data: data.f_matrix(a, b, c, d), ring) == message


def _reference_unitarity(data):
    """The F-unitarity residual as validate once took it: the worst, NaN
    first, of max(||M*M - I||, ||M M* - I||) by np.linalg.norm over the
    blocks that have trees and no unit argument, in index order."""
    defects = []
    for a, b, c, d in itertools.product(data.simples, repeat=4):
        if {a, b, c} & set(data.units) or not data.tree_rows(a, b, c, d):
            continue
        m = data.f_matrix(a, b, c, d)
        eye = np.eye(len(m))
        with np.errstate(over="ignore", invalid="ignore"):
            defects.append(worst([np.linalg.norm(m.conj().T @ m - eye), np.linalg.norm(m @ m.conj().T - eye)]))
    return float(worst(defects))


UNITARITY_CASES = REFERENCE_CASES + [
    (f"{kind}{n}_gauged", lambda kind=kind, n=n: fam.gauge(
        fam.ty_zn(n) if kind == "ty" else fam.vec_zn(n, n - 1), np.random.default_rng(50 + n)))
    for kind, n in (("ty", 2), ("ty", 3), ("ty", 5), ("vec", 3), ("vec", 6))
] + [("overflowing_fibonacci", _overflowing_fibonacci), ("overflowing_one_by_one", _overflowing_one_by_one)]


@pytest.mark.parametrize("name,make", UNITARITY_CASES, ids=[n for n, _ in UNITARITY_CASES])
def test_f_unitarity_matches_the_norm_reference(name, make):
    data = make()
    got, want = validate(data).residuals["f_unitarity"], _reference_unitarity(data)
    assert repr(got) == repr(want)


def _with_entry(data, key, index, value):
    """data with one entry of its compiled F block at key set to value,
    which construction would refuse for a non-finite value: the flat F
    store that validate reads is swapped for an edited copy."""
    n = len(data.simples)
    a, b, c, d = (data.index[x] for x in key)
    pos = np.searchsorted(data._f_keys, ((a * n + b) * n + c) * n + d)
    assert data._f_keys[pos] == ((a * n + b) * n + c) * n + d
    flat = data.f_entries.copy()
    flat[data._f_at[pos] + index] = value
    data.f_entries = flat
    return data


@pytest.mark.parametrize(
    "key,index,value",
    [(("t", "t", "t", "1"), 0, np.nan), (("t", "t", "t", "t"), 3, np.inf), (("t", "t", "t", "t"), 1, np.nan)],
    ids=["nan_one_by_one", "inf_larger", "nan_larger"],
)
def test_a_non_finite_block_rejects_on_f_unitarity_without_a_warning(key, index, value):
    # F^{ttt}_1 stored as the 1x1 identity, so that it has an entry to edit
    fib = _with_block(bundled.load("fibonacci"), ("t", "t", "t", "1"), np.eye(1))
    data = _with_entry(fib, key, index, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = validate(data)
    assert (cert.ok, cert.failed_axiom) == (False, "F-unitarity")
    assert not np.isfinite(cert.residuals["f_unitarity"])


def test_a_huge_finite_entry_overflows_without_a_warning():
    # F^{ttt}_t[1, 1] = 1e200 is finite, so construction takes it, but the
    # two paths' sums at one slot overflow to inf - inf
    fib = bundled.load("fibonacci")
    block = fib.f_matrix("t", "t", "t", "t").copy()
    block[1, 1] = 1e200
    data = _with_block(fib, ("t", "t", "t", "t"), block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = validate(data)
    assert (cert.ok, cert.failed_axiom) == (False, "F-unitarity")
    assert np.isnan(cert.residuals["pentagon"])
