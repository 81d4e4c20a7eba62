"""Tests for the LU and QR tile kernels and the Table I flop model."""

import numpy as np
import pytest

from repro.kernels import (
    KernelFlops,
    LUPanelFactor,
    apply_swptrsm,
    eliminate_trsm,
    factor_panel_lu,
    factor_tile_lu,
    factorization_flops_lu,
    factorization_flops_qr,
    fake_flops,
    geqrt_tile,
    kernel_flops,
    lu_step_flops,
    qr_step_flops,
    step_flops_table,
    true_flops,
    tsmqr,
    tsqrt,
    ttmqr,
    ttqrt,
    unmqr,
    update_gemm,
)
from repro.core.panel_analysis import analyze_panel
from repro.kernels.qr_kernels import INNER_BLOCK, qr_factor_nbytes
from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix

from householder import apply_q_transpose, geqrt


# --------------------------------------------------------------------------- #
# LU kernels
# --------------------------------------------------------------------------- #
class TestLUKernels:
    def test_factor_tile_properties(self, rng):
        a = rng.standard_normal((8, 8))
        f = factor_tile_lu(a)
        assert isinstance(f, LUPanelFactor)
        assert f.nb == 8
        assert f.u.shape == (8, 8)
        np.testing.assert_allclose(np.tril(f.u, -1), 0.0)
        np.testing.assert_allclose(np.diag(f.l_top), 1.0)
        assert f.smallest_pivot > 0.0

    def test_factor_panel_stacks(self, rng):
        stacked = rng.standard_normal((24, 8))
        f = factor_panel_lu(stacked, 8)
        # The factored panel reproduces the permuted input: P W = L U.
        lfull = np.tril(f.lu, -1)
        lfull[np.arange(8), np.arange(8)] = 1.0
        from repro.linalg import apply_row_pivots

        pw = apply_row_pivots(stacked.copy(), f.piv)
        np.testing.assert_allclose(lfull @ f.u, pw, atol=1e-11)

    def test_singular_domain_is_reported_not_raised(self, rng):
        """analyze_panel turns the breakdown into a singular analysis, which
        is what sends the hybrid solver to a QR step."""
        a = rng.standard_normal((32, 32))
        a[:, 0] = 0.0
        tiles = TileMatrix.from_dense(a, 8)
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
        analysis = analyze_panel(tiles, dist, 0)
        assert analysis.singular
        assert analysis.info.diag_inv_norm_inv == 0.0

    def test_factor_panel_wrong_width(self, rng):
        with pytest.raises(ValueError):
            factor_panel_lu(rng.standard_normal((16, 4)), 8)

    def test_eliminate_trsm(self, rng):
        a_kk = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        f = factor_tile_lu(a_kk)
        a_ik = rng.standard_normal((6, 6))
        out = eliminate_trsm(f, a_ik)
        np.testing.assert_allclose(out @ f.u, a_ik, atol=1e-10)

    def test_apply_swptrsm_single_tile(self, rng):
        a_kk = rng.standard_normal((6, 6))
        f = factor_tile_lu(a_kk)
        c = rng.standard_normal((6, 4))
        out = apply_swptrsm(f, c)
        # out = L^{-1} P c  =>  L out = P c
        from repro.linalg import apply_row_pivots

        pc = apply_row_pivots(c.copy(), f.piv)
        np.testing.assert_allclose(f.l_top @ out[:6], pc[:6], atol=1e-10)

    def test_apply_swptrsm_row_count_check(self, rng):
        f = factor_tile_lu(rng.standard_normal((6, 6)))
        with pytest.raises(ValueError):
            apply_swptrsm(f, rng.standard_normal((8, 3)))

    def test_update_gemm(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        c = rng.standard_normal((5, 5))
        np.testing.assert_allclose(update_gemm(c, a, b), c - a @ b)

    def test_lu_step_schur_complement(self, rng):
        """Factor + eliminate + apply + update reproduces the Schur complement."""
        nb = 6
        a_kk = rng.standard_normal((nb, nb)) + 5 * np.eye(nb)
        a_ik = rng.standard_normal((nb, nb))
        a_kj = rng.standard_normal((nb, nb))
        a_ij = rng.standard_normal((nb, nb))

        f = factor_tile_lu(a_kk)
        elim = eliminate_trsm(f, a_ik)
        applied = apply_swptrsm(f, a_kj)
        updated = update_gemm(a_ij, elim, applied[:nb])

        expected = a_ij - a_ik @ np.linalg.inv(a_kk) @ a_kj
        np.testing.assert_allclose(updated, expected, atol=1e-9)


# --------------------------------------------------------------------------- #
# QR kernels
# --------------------------------------------------------------------------- #
def _qt_geqrt(f):
    """Explicit ``Q^T`` of a GEQRT factor: UNMQR applied to the identity."""
    return unmqr(f, np.eye(f.nb))


def _qt_coupled(f):
    """Explicit ``Q^T`` of a TSQRT/TTQRT factor: TSMQR applied to identity blocks."""
    eye = np.eye(2 * f.nb)
    top, bottom = tsmqr(f, eye[: f.nb], eye[f.nb :])
    return np.vstack([top, bottom])


def _assert_same_r(r, r_ref, atol):
    """Triangular factors agree up to the sign of each row."""
    np.testing.assert_allclose(np.abs(r), np.abs(r_ref), atol=atol)


class TestQRKernels:
    def test_geqrt_tile(self, rng):
        a = rng.standard_normal((8, 8))
        f = geqrt_tile(a)
        q = _qt_geqrt(f).T
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-10)
        np.testing.assert_allclose(q @ f.r, a, atol=1e-10)
        np.testing.assert_array_equal(np.tril(f.r, -1), 0.0)

    def test_unmqr_applies_qt(self, rng):
        a = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 4))
        f = geqrt_tile(a)
        np.testing.assert_allclose(unmqr(f, c), _qt_geqrt(f) @ c, atol=1e-10)
        # Same reflector sign convention as the numpy oracle, so Q^T agrees.
        v, t, r = geqrt(a)
        np.testing.assert_allclose(unmqr(f, c), apply_q_transpose(v, t, c), atol=1e-10)
        np.testing.assert_allclose(f.r, r, atol=1e-10)

    def test_tsqrt_kills_bottom_tile(self, rng):
        nb = 6
        r_top = np.triu(rng.standard_normal((nb, nb)))
        a_bot = rng.standard_normal((nb, nb))
        f = tsqrt(r_top, a_bot)
        assert f.l == 0
        # R is upper triangular and the transformation reconstructs the stack.
        np.testing.assert_allclose(np.tril(f.r, -1), 0.0, atol=1e-12)
        q = _qt_coupled(f).T
        np.testing.assert_allclose(q.T @ q, np.eye(2 * nb), atol=1e-10)
        stacked = np.vstack([r_top, a_bot])
        np.testing.assert_allclose(q @ np.vstack([f.r, np.zeros((nb, nb))]), stacked, atol=1e-10)

    def test_tsmqr_consistent_with_q(self, rng):
        nb = 5
        r_top = np.triu(rng.standard_normal((nb, nb)))
        a_bot = rng.standard_normal((nb, nb))
        f = tsqrt(r_top, a_bot)
        c_top = rng.standard_normal((nb, 3))
        c_bot = rng.standard_normal((nb, 3))
        top, bot = tsmqr(f, c_top, c_bot)
        c = np.vstack([c_top, c_bot])
        np.testing.assert_allclose(np.vstack([top, bot]), _qt_coupled(f) @ c, atol=1e-10)
        v, t, _ = geqrt(np.vstack([r_top, a_bot]))
        np.testing.assert_allclose(np.vstack([top, bot]), apply_q_transpose(v, t, c), atol=1e-10)

    def test_ttqrt_and_ttmqr(self, rng):
        nb = 4
        r1 = np.triu(rng.standard_normal((nb, nb)))
        r2 = np.triu(rng.standard_normal((nb, nb)))
        f = ttqrt(r1, r2)
        assert f.l == nb
        np.testing.assert_array_equal(np.tril(f.v, -1), 0.0)  # V2 is triangular
        q = _qt_coupled(f).T
        np.testing.assert_allclose(q.T @ q, np.eye(2 * nb), atol=1e-10)
        stacked = np.vstack([r1, r2])
        np.testing.assert_allclose(q @ np.vstack([f.r, np.zeros((nb, nb))]), stacked, atol=1e-10)
        c1, c2 = rng.standard_normal((nb, 2)), rng.standard_normal((nb, 2))
        top, bot = ttmqr(f, c1, c2)
        np.testing.assert_allclose(np.vstack([top, bot]), q.T @ np.vstack([c1, c2]), atol=1e-10)

    def test_norm_preservation(self, rng):
        """QR kernels never grow the Frobenius norm of the coupled tiles."""
        nb = 6
        r_top = np.triu(rng.standard_normal((nb, nb)))
        a_bot = rng.standard_normal((nb, nb))
        f = tsqrt(r_top, a_bot)
        before = np.linalg.norm(np.vstack([r_top, a_bot]))
        after = np.linalg.norm(f.r)
        assert after == pytest.approx(before, rel=1e-10)

    # ------------------------------------------------------------------ #
    # Edge cases, checked against numpy.linalg.qr
    # ------------------------------------------------------------------ #
    def test_zero_tile_gives_identity_reflectors(self, rng):
        nb = 5
        f = geqrt_tile(np.zeros((nb, nb)))
        np.testing.assert_array_equal(f.r, 0.0)
        np.testing.assert_array_equal(np.diag(f.t), 0.0)  # tau = 0 everywhere
        c = rng.standard_normal((nb, 3))
        np.testing.assert_array_equal(unmqr(f, c), c)
        # Killing a zero tile leaves the eliminator untouched.
        r_top = np.triu(rng.standard_normal((nb, nb)))
        g = tsqrt(r_top, np.zeros((nb, nb)))
        np.testing.assert_array_equal(g.r, r_top)
        top, bot = tsmqr(g, c, c)
        np.testing.assert_array_equal(top, c)
        np.testing.assert_array_equal(bot, c)

    def test_order_one_tiles(self):
        a, b = np.array([[3.0]]), np.array([[-4.0]])
        assert abs(geqrt_tile(a).r[0, 0]) == pytest.approx(3.0)
        for couple in (tsqrt, ttqrt):
            f = couple(a, b)
            _assert_same_r(f.r, np.linalg.qr(np.vstack([a, b]), mode="r"), 1e-14)
            q = _qt_coupled(f).T
            np.testing.assert_allclose(q @ np.vstack([f.r, [[0.0]]]), [[3.0], [-4.0]], atol=1e-14)

    def test_rank_deficient_tile(self, rng):
        nb = 6
        a = np.outer(rng.standard_normal(nb), rng.standard_normal(nb))  # rank one
        f = geqrt_tile(a)
        q = _qt_geqrt(f).T
        np.testing.assert_allclose(q.T @ q, np.eye(nb), atol=1e-10)
        np.testing.assert_allclose(q @ f.r, a, atol=1e-10)
        _assert_same_r(f.r, np.linalg.qr(a, mode="r"), 1e-10)

    def test_tt_matches_numpy_on_triangular_inputs(self, rng):
        nb = 7
        r1 = np.triu(rng.standard_normal((nb, nb)))
        r2 = np.triu(rng.standard_normal((nb, nb)))
        f = ttqrt(r1, r2)
        _assert_same_r(f.r, np.linalg.qr(np.vstack([r1, r2]), mode="r"), 1e-10)
        # TT and TS kernels agree on triangular input (TT only skips zeros).
        g = tsqrt(r1, r2)
        np.testing.assert_allclose(f.r, g.r, atol=1e-10)
        c1, c2 = rng.standard_normal((nb, 3)), rng.standard_normal((nb, 3))
        for x, y in zip(ttmqr(f, c1, c2), tsmqr(g, c1, c2)):
            np.testing.assert_allclose(x, y, atol=1e-10)

    def test_float32_in_float32_out(self, rng):
        nb = 8
        a = rng.standard_normal((nb, nb)).astype(np.float32)
        b = rng.standard_normal((nb, nb)).astype(np.float32)
        c = rng.standard_normal((nb, 3)).astype(np.float32)
        f = geqrt_tile(a)
        g = tsqrt(f.r, b)
        h = ttqrt(f.r, np.triu(b))
        outs = [f.v, f.t, f.r, unmqr(f, c), g.v, g.t, g.r, h.r, *tsmqr(g, c, c), *ttmqr(h, c, c)]
        assert all(x.dtype == np.float32 for x in outs)
        _assert_same_r(f.r, np.linalg.qr(a.astype(np.float64), mode="r"), 1e-4)
        _assert_same_r(g.r, np.linalg.qr(np.vstack([f.r, b]).astype(np.float64), mode="r"), 1e-4)

    def test_factor_nbytes_matches_certificate(self, rng):
        for nb in (1, 4, 48):
            a = rng.standard_normal((nb, nb))
            for f in (geqrt_tile(a), tsqrt(np.triu(a), a), ttqrt(np.triu(a), a)):
                assert f.v.nbytes + f.t.nbytes + f.r.nbytes == qr_factor_nbytes(nb, 8)


# Tile orders around the inner blocking: one partial block, exactly one block,
# and several blocks (the last one partial) in the ``ib x nb`` T factors.
_QR_ORDERS = [1, 2, 3, 8, 31, INNER_BLOCK, INNER_BLOCK + 1, 40, 2 * INNER_BLOCK, 2 * INNER_BLOCK + 1]
_TOL = {np.float64: 1e-10, np.float32: 1e-4}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("nb", _QR_ORDERS)
class TestQRKernelsAcrossOrders:
    """The QR identities for every tile order, across the inner-block boundary."""

    def _tol(self, dtype, nb):
        return _TOL[dtype] * max(1, nb)

    def test_geqrt_unmqr(self, rng, nb, dtype):
        a = rng.standard_normal((nb, nb)).astype(dtype)
        c = rng.standard_normal((nb, 5)).astype(dtype)
        f = geqrt_tile(a)
        assert f.t.shape == (min(nb, INNER_BLOCK), nb)
        qt = _qt_geqrt(f).astype(np.float64)
        tol = self._tol(dtype, nb)
        np.testing.assert_allclose(qt @ qt.T, np.eye(nb), atol=tol)
        np.testing.assert_allclose(qt.T @ f.r, a, atol=tol)
        np.testing.assert_allclose(unmqr(f, c), qt @ c, atol=tol)
        assert unmqr(f, c).dtype == dtype
        if dtype == np.float64:
            v, t, r = geqrt(a)
            np.testing.assert_allclose(f.r, r, atol=tol)
            np.testing.assert_allclose(unmqr(f, c), apply_q_transpose(v, t, c), atol=tol)

    @pytest.mark.parametrize("couple, update", [(tsqrt, tsmqr), (ttqrt, ttmqr)], ids=["ts", "tt"])
    def test_coupled_elimination(self, rng, nb, dtype, couple, update):
        r_top = np.triu(rng.standard_normal((nb, nb))).astype(dtype)
        bottom = rng.standard_normal((nb, nb)).astype(dtype)
        if couple is ttqrt:
            bottom = np.triu(bottom)
        f = couple(r_top, bottom)
        assert f.l == (nb if couple is ttqrt else 0)
        np.testing.assert_array_equal(np.tril(f.r, -1), 0.0)
        qt = _qt_coupled(f).astype(np.float64)
        tol = self._tol(dtype, nb)
        stacked = np.vstack([r_top, bottom])
        np.testing.assert_allclose(qt @ qt.T, np.eye(2 * nb), atol=tol)
        np.testing.assert_allclose(
            qt.T @ np.vstack([f.r, np.zeros((nb, nb))]), stacked, atol=tol
        )
        c_top = rng.standard_normal((nb, 4)).astype(dtype)
        c_bot = rng.standard_normal((nb, 4)).astype(dtype)
        top, bot = update(f, c_top, c_bot)
        assert top.dtype == bot.dtype == dtype
        np.testing.assert_allclose(
            np.vstack([top, bot]), qt @ np.vstack([c_top, c_bot]), atol=tol
        )
        if dtype == np.float64:
            v, t, _ = geqrt(stacked)
            np.testing.assert_allclose(
                np.vstack([top, bot]),
                apply_q_transpose(v, t, np.vstack([c_top, c_bot])),
                atol=tol,
            )


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("nb, tiles", [(1, 3), (8, 1), (8, 4), (33, 2)])
def test_factor_panel_lu_across_shapes(rng, nb, tiles, dtype):
    """``P W = L U`` with ``|L| <= 1`` on stacked domains of every shape."""
    stacked = rng.standard_normal((tiles * nb, nb)).astype(dtype)
    f = factor_panel_lu(stacked, nb)
    assert f.lu.dtype == dtype
    lfull = np.tril(f.lu, -1).astype(np.float64)
    lfull[np.arange(nb), np.arange(nb)] = 1.0
    assert np.abs(lfull).max() <= 1.0
    from repro.linalg import apply_row_pivots

    pw = apply_row_pivots(stacked.astype(np.float64), f.piv)
    np.testing.assert_allclose(lfull @ f.u, pw, atol=_TOL[dtype] * max(1, nb))


# --------------------------------------------------------------------------- #
# Flop model (Table I)
# --------------------------------------------------------------------------- #
class TestFlops:
    def test_kernel_values_in_nb3_units(self):
        kf = KernelFlops(10)
        assert kf.getrf == pytest.approx((2 / 3) * 1000)
        assert kf.trsm == pytest.approx(1000)
        assert kf.gemm == pytest.approx(2000)
        assert kf.geqrt == pytest.approx((4 / 3) * 1000)
        assert kf.tsqrt == pytest.approx(2000)
        assert kf.tsmqr == pytest.approx(4000)

    def test_kernel_flops_by_name(self):
        assert kernel_flops("GEMM", 4) == pytest.approx(2 * 64)
        with pytest.raises(KeyError):
            kernel_flops("nope", 4)

    def test_table1_first_step_units(self):
        # For the first step of an n-tile matrix, Table I gives (n-1) factors.
        table = step_flops_table(nb=240, remaining=5)
        assert table["lu"]["factor"] == pytest.approx(2 / 3)
        assert table["lu"]["eliminate"] == pytest.approx(4.0)
        assert table["lu"]["apply"] == pytest.approx(4.0)
        assert table["lu"]["update"] == pytest.approx(2 * 16.0)
        assert table["qr"]["factor"] == pytest.approx(4 / 3)
        assert table["qr"]["eliminate"] == pytest.approx(8.0)
        assert table["qr"]["update"] == pytest.approx(4 * 16.0)

    def test_qr_step_roughly_twice_lu(self):
        for remaining in (2, 8, 40):
            lu = lu_step_flops(16, remaining)["total"]
            qr = qr_step_flops(16, remaining)["total"]
            assert 1.8 <= qr / lu <= 2.1

    def test_factorization_totals(self):
        n = 960
        assert factorization_flops_lu(n) == pytest.approx(2 / 3 * n**3)
        assert factorization_flops_qr(n) == pytest.approx(4 / 3 * n**3)
        assert fake_flops(n) == factorization_flops_lu(n)

    def test_sum_of_lu_steps_approaches_total(self):
        nb, n_tiles = 32, 24
        total = sum(lu_step_flops(nb, n_tiles - k)["total"] for k in range(n_tiles))
        expected = factorization_flops_lu(nb * n_tiles)
        assert total == pytest.approx(expected, rel=0.15)

    def test_true_flops_interpolates(self):
        n = 1000
        assert true_flops(n, 1.0) == pytest.approx(factorization_flops_lu(n))
        assert true_flops(n, 0.0) == pytest.approx(factorization_flops_qr(n))
        mid = true_flops(n, 0.5)
        assert factorization_flops_lu(n) < mid < factorization_flops_qr(n)

    def test_true_flops_validates_fraction(self):
        with pytest.raises(ValueError):
            true_flops(100, 1.5)
