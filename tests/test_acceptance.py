"""Acceptance criteria, one test per criterion, each at its stated
tolerance.  Every test prints a single PASS line on success (run with
-s or -v to see them); a failure raises with the measured value.
"""

import time

import numpy as np

import warpcurve as wc
from warpcurve.curvature import f_eval, f_grad, sample_cone
from warpcurve.geometry import (compute_geometry, special_frame_deviations,
                                support_identity_check)
from warpcurve.grid import NodeField, random_smooth
from warpcurve.oracle import fd_colored_jacobian
from warpcurve.solver import (assemble_jacobian, continuation,
                              manufactured_residual_norm, newton_solve)

from conftest import make_problem, quadratic_constant

CASES = ((1, 1, 256), (2, 1, 48), (2, 2, 48))


def _report(k, detail):
    print(f"\nACCEPTANCE {k}: PASS  {detail}")


def test_criterion_1_exact_radial_solution():
    worst_dev, worst_res, worst_time = 0.0, 0.0, 0.0
    for n, r, N in CASES:
        t0 = time.time()
        hp = make_problem(n=n, N=N, r=r, eps=0.0, t_minus=0.5, t_plus=1.6)
        z, report = continuation(hp)
        elapsed = time.time() - t0
        dev = float(np.abs(z.values - 1.0).max())
        assert report.s_values[-1] == 1.0
        assert dev <= 1e-8, f"(n={n}, r={r}): |z-1| = {dev:.3e}"
        assert report.final.residual <= 1e-10
        assert elapsed <= 30.0, f"(n={n}, r={r}) took {elapsed:.1f}s"
        worst_dev = max(worst_dev, dev)
        worst_res = max(worst_res, report.final.residual)
        worst_time = max(worst_time, elapsed)
    _report(1, f"|z-1| <= {worst_dev:.2e}, residual <= {worst_res:.2e}, "
               f"slowest case {worst_time:.2f}s")


def test_criterion_2_uniqueness_at_s0():
    hp = make_problem(n=1, N=256, eps=0.0, t_minus=0.5, t_plus=1.6)
    rng = np.random.default_rng(20240901)
    worst = 0.0
    for trial in range(10):
        z0 = NodeField(hp.t0 + random_smooth(hp.grid, rng, 0.05),
                       hp.grid)
        z, stats = newton_solve(z0, 0.0, hp)
        dev = float(np.abs(z.values - hp.t0).max())
        assert dev <= 1e-8, f"trial {trial}: |z - t0| = {dev:.3e}"
        worst = max(worst, dev)
    _report(2, f"10 random starts, worst |z - t0| = {worst:.2e}")


def test_criterion_3_barrier_theorem():
    hp = make_problem(n=1, N=256, eps=0.1, t_minus=0.5, t_plus=1.5)
    lo, hi = wc.barrier_crossings(hp.prescription)
    z, report = continuation(hp)          # BarrierViolation would raise
    margin = min(min(st.z_min - lo for st in report.steps),
                 min(hi - st.z_max for st in report.steps))
    assert margin > 0.0, f"iterate left the crossing interval by {margin:.3e}"
    _report(3, f"all {len(report.steps)} accepted states inside "
               f"({lo:.6f}, {hi:.6f}), margin {margin:.3e}, "
               f"zero barrier violations")


def test_criterion_4_homotopy_conditions():
    hp = make_problem(n=1, N=256, eps=0.1, t_minus=0.5, t_plus=1.5,
                      eps_phi=0.1)
    rows = hp.homotopy_report()
    assert all(r.passed for r in rows)
    min_margin = min(r.value for r in rows)
    assert min_margin > 0.0
    # negative control: zero decay rate must fail exactly the (v) row
    hp0 = wc.build_homotopy(hp.prescription, t0=hp.t0, eps_phi=0.0)
    rows0 = hp0.homotopy_report()
    assert [r.passed for r in rows0] == [True, True, True, False]
    assert rows0[3].value == 0.0
    _report(4, f"homotopy margins (ii)-(v) all > 0 (min {min_margin:.3e}); "
               f"eps_phi = 0 fails exactly the (v) row with margin 0")


def test_criterion_5_jacobian_correctness():
    worst = 0.0
    rng = np.random.default_rng(512)
    for n, r, N in CASES:
        hp = make_problem(n=n, N=N, r=r, eps=0.0, t_minus=0.5, t_plus=1.6)
        for _ in range(5):
            z = NodeField(hp.t0 + random_smooth(hp.grid, rng, 0.04), hp.grid)
            s = float(rng.uniform(0, 1))
            Ja = assemble_jacobian(z, s, hp)
            Jf = fd_colored_jacobian(z, s, hp)
            err = float(np.abs((Ja - Jf).toarray()).max()
                        / np.abs(Ja.data).max())
            assert err <= 1e-6, f"(n={n}, r={r}): jacobian err {err:.3e}"
            worst = max(worst, err)
    # quadratic tail on a criterion-1 problem
    hp = make_problem(n=1, N=256, eps=0.0, t_minus=0.5, t_plus=1.6)
    z0 = NodeField(hp.t0 + random_smooth(hp.grid,
                                         np.random.default_rng(3), 0.05),
                   hp.grid)
    _, stats = newton_solve(z0, 0.0, hp)
    C = quadratic_constant(stats.residual_norms)
    assert stats.iterations >= 3
    assert np.isfinite(C) and C <= 1e3, f"quadratic constant {C:.3e}"
    _report(5, f"jacobian agreement <= {worst:.2e} over 15 states; "
               f"quadratic tail r_k+1/r_k^2 <= {C:.3g}")


def test_criterion_6_curvature_function_suite():
    for n, r in ((1, 1), (2, 1), (2, 2)):
        spec = wc.CurvatureSpec(n, r)
        rng = np.random.default_rng(60 + 10 * n + r)
        lam = sample_cone(spec, rng, 10000, 0.3, 3.0)
        fv = f_eval(spec, lam)
        fg = f_grad(spec, lam)
        assert np.all(fg > 0)                                   # ellipticity
        euler = np.abs((fg * lam).sum(-1) - fv).max()
        assert euler <= 1e-12
        c = rng.uniform(0.25, 4.0, size=10000)
        hom = np.abs(f_eval(spec, c[:, None] * lam) - c * fv) / (c * fv)
        assert hom.max() <= 1e-12
        if n > 1:
            perm = np.abs(f_eval(spec, lam[:, ::-1]) - fv).max()
            assert perm <= 1e-14
            a, b = lam[:1000], lam[1000:2000]
            conc = (f_eval(spec, a) + f_eval(spec, b)) / 2 \
                - f_eval(spec, (a + b) / 2)
            assert max(0.0, float(conc.max())) <= 1e-12
            lam_desc = -np.sort(-lam[:2000], axis=-1)
            g_desc = f_grad(spec, lam_desc)
            assert np.all(g_desc[:, :-1] <= g_desc[:, 1:] + 1e-14)  # Schur
    _report(6, "homogeneity, symmetry, Euler, ellipticity (1e4 pts), "
               "concavity (1e3 pairs), Schur ordering: all within tolerance")


def test_criterion_7_geometry_identities():
    prof = wc.WarpingProfile.cosh(0.2, 3.0)
    # umbilic slice
    g2 = wc.make_grid(2, 48)
    geom_c = compute_geometry(NodeField.constant(g2, 1.3), g2, prof)
    umb = float(np.abs(geom_c.lam - np.tanh(1.3)).max())
    assert umb <= 1e-12
    # special frame at 1e3 random states
    rng = np.random.default_rng(7007)
    worst_dev = 0.0
    checked = 0
    while checked < 1000:
        z = 1.0 + random_smooth(g2, rng, float(rng.uniform(0.05, 0.2)))
        geom = compute_geometry(z, g2, prof)
        gn = np.sqrt((geom.grad ** 2).sum(-1))
        idx = tuple(rng.integers(48, size=(100, 2)).T)
        keep = np.flatnonzero(gn[idx] >= 1e-8)[:1000 - checked]
        dev = special_frame_deviations(geom, tuple(i[keep] for i in idx))
        worst_dev = max(worst_dev, float(dev.max(initial=0.0)))
        checked += len(keep)
    assert worst_dev <= 1e-10
    # support identity convergence order under grid doubling
    ratios = []
    for n in (1, 2):
        errs = []
        for N in ((256, 512) if n == 1 else (48, 96)):
            gg = wc.make_grid(n, N)
            X = gg.coords()
            z = 1.0 + 0.1 * np.sin(X[0]) * (np.cos(X[1]) if n == 2 else 1.0)
            errs.append(support_identity_check(compute_geometry(z, gg, prof)))
        for k in range(2):
            ratio = errs[0][k] / errs[1][k]
            assert abs(ratio - 4.0) <= 0.6, f"ratio {ratio:.3f}"  # 4 +- 15%
            ratios.append(ratio)
    _report(7, f"umbilic {umb:.2e}; special frame <= {worst_dev:.2e} at 1000 "
               f"states; support ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_8_manufactured_convergence():
    prof = wc.WarpingProfile.cosh(0.2, 3.0)
    measured = {}
    for n, Ns in ((1, (64, 128, 256)), (2, (24, 48, 96))):
        spec = wc.CurvatureSpec(n, n)
        errs = [manufactured_residual_norm(wc.make_grid(n, N), prof, spec)
                for N in Ns]
        orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
        assert all(o >= 1.9 for o in orders), f"n={n}: orders {orders}"
        measured[n] = orders
    _report(8, f"residual orders n=1 {measured[1]}, n=2 {measured[2]} "
               f"(all >= 1.9)")
