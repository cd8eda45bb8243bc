import itertools

import numpy as np
import pytest

from hstarcat import bundled
from hstarcat.fusion import (
    FusionData,
    SchemaError,
    SphericalWeight,
    _fusion_table,
    loop_eval,
    pentagon_residual,
    renorm_scalar,
    udf_from_weight,
    validate,
)

PHI = (1 + np.sqrt(5)) / 2


@pytest.mark.parametrize("name", bundled.NAMES)
def test_bundled_validate(name):
    cert = validate(bundled.load(name))
    assert cert.ok
    assert cert.residuals["pentagon"] < 1e-12
    assert cert.residuals["f_unitarity"] < 1e-12


def test_corrupt_fibonacci_fails_pentagon():
    data = bundled.load("fibonacci_corrupt", trust=True)
    cert = validate(data)
    assert not cert.ok
    assert cert.failed_axiom == "pentagon"
    # the corruption keeps F unitary on purpose
    assert cert.residuals["f_unitarity"] < 1e-12


def test_load_rejects_negative_control():
    with pytest.raises(SchemaError):
        bundled.load("fibonacci_corrupt")


def test_fpdims():
    fib = bundled.load("fibonacci")
    assert fib.fpdim("t") == pytest.approx(PHI)
    assert fib.fpdim_total() == pytest.approx(1 + PHI**2)
    ising = bundled.load("ising")
    assert ising.fpdim("s") == pytest.approx(np.sqrt(2))
    assert ising.fpdim_total() == pytest.approx(4.0)


def test_components():
    m2 = bundled.load("m2_hilb")
    comps = m2.components()
    assert len(comps) == 1  # connected by the off-diagonal simples
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
    assert udf.dim_left("12") == pytest.approx(2.0)
    assert udf.dim_right("12") == pytest.approx(0.5)


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


def test_renorm_scalar_formula():
    fib = bundled.load("fibonacci")
    psi = SphericalWeight((1.3,))
    v, pre = renorm_scalar(fib, psi)
    expected = fib.fpdim_total() * 1.3**2 / 1.3  # FPdim * psi(id) / k^2, k = psi_1... v_1
    assert v["1"] == pytest.approx(expected)
    assert pre["1"] == pytest.approx(1.0 / expected)
    # m2 with non-uniform psi: v constant across units
    m2 = bundled.load("m2_hilb")
    v2, _ = renorm_scalar(m2, SphericalWeight((1.0, 2.0)))
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


def test_schema_errors():
    with pytest.raises(SchemaError):
        FusionData(("a", "a"), ("a",), {"a": ("a", "a")}, {"a": "a"}, {}, {})
    with pytest.raises(SchemaError):
        FusionData(("a",), ("b",), {"a": ("a", "a")}, {"a": "a"}, {}, {})


def test_nan_written_after_construction_rejects_on_f_unitarity():
    data = bundled.load("fibonacci")
    data.F[("t", "t", "t", "t")][0, 0] = np.nan
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
    ],
    ids=["nan_f_entry", "unknown_dual", "non_unit_grading", "unknown_n_label", "unknown_f_label"],
)
def test_bad_entries_are_schema_errors(edit):
    doc = bundled.load("fibonacci").to_json()
    edit(doc)
    with pytest.raises(SchemaError):
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
    assert abs(pentagon_residual(gauged) - 4.261523391944277) < 1e-12


def _reference_pentagon(data):
    """The label-keyed pentagon loop over every (a, b, c, d, u) through the
    public accessors. pentagon_residual must reproduce it exactly: it
    multiplies and adds the same numbers in the same order."""
    S = data.simples

    def fmat(x, y, z, w):
        rows = {r: i for i, r in enumerate(data.tree_rows(x, y, z, w))}
        cols = {k: i for i, k in enumerate(data.tree_cols(x, y, z, w))}
        return data.f_matrix(x, y, z, w), rows, cols

    worst = 0.0
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
            for f1 in data.fusion_products(b, c):
                for k1 in range(data.n(b, c, f1)):
                    for l1 in range(data.n(a, f1, g)):
                        co1 = m_abc[r_abc[(e, m1, m2)], c_abc[(f1, k1, l1)]]
                        if co1 == 0:
                            continue
                        m_afd, r_afd, c_afd = fmat(a, f1, d, u)
                        for f2 in data.fusion_products(f1, d):
                            for k2 in range(data.n(f1, d, f2)):
                                for l2 in range(data.n(a, f2, u)):
                                    co2 = co1 * m_afd[r_afd[(g, l1, m3)], c_afd[(f2, k2, l2)]]
                                    if co2 == 0:
                                        continue
                                    m_bcd, r_bcd, c_bcd = fmat(b, c, d, f2)
                                    for f3 in data.fusion_products(c, d):
                                        for k3 in range(data.n(c, d, f3)):
                                            for l3 in range(data.n(b, f3, f2)):
                                                co3 = co2 * m_bcd[
                                                    r_bcd[(f1, k1, k2)], c_bcd[(f3, k3, l3)]
                                                ]
                                                if co3 != 0:
                                                    pa[fidx[(f2, l2, f3, l3, k3)], si] += co3
            m_ecd, r_ecd, c_ecd = fmat(e, c, d, u)
            for h in data.fusion_products(c, d):
                for tau in range(data.n(c, d, h)):
                    for sig in range(data.n(e, h, u)):
                        co1 = m_ecd[r_ecd[(g, m2, m3)], c_ecd[(h, tau, sig)]]
                        if co1 == 0:
                            continue
                        m_abh, r_abh, c_abh = fmat(a, b, h, u)
                        for k in data.fusion_products(b, h):
                            for rho in range(data.n(b, h, k)):
                                for om in range(data.n(a, k, u)):
                                    co2 = co1 * m_abh[r_abh[(e, m1, sig)], c_abh[(k, rho, om)]]
                                    if co2 != 0:
                                        pb[fidx[(k, om, h, rho, tau)], si] += co2
        worst = max(worst, float(np.linalg.norm(pa - pb)))
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


REFERENCE_CASES = [(name, lambda name=name: bundled.load(name, trust=True))
                   for name in bundled.NAMES + ("fibonacci_corrupt",)]
REFERENCE_CASES += [
    (f"{name}_gauged", lambda name=name: _phase_gauge(bundled.load(name), 5))
    for name in ("fibonacci", "ising", "m2_hilb")
]
REFERENCE_CASES.append(("multiplicity_two", lambda: _multiplicity_two(DFT5, ROT)))


@pytest.mark.parametrize("name,make", REFERENCE_CASES, ids=[n for n, _ in REFERENCE_CASES])
def test_tables_match_label_accessors(name, make):
    data = make()
    N = _fusion_table(data)
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(data.simples), repeat=3):
        assert N[i, j, k] == data.n(a, b, c)
    assert pentagon_residual(data) == _reference_pentagon(data)
