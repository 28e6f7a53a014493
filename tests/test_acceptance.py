"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are wall-clock seconds measured around the criterion body and are
enforced on every run; the session-scoped kernel warmup keeps one-time
import and BLAS start-up costs out of them.
"""

import time

import numpy as np

from conftest import assert_factor_in_pattern, fill_blocks, graph, permuted, \
    rand_block_system, rand_complex_symmetric, reconstruct_dense
from ddsolve import blockmat, factor, mesh as mm, ordering, subdomain as sd, \
    symbolic
from ddsolve.config import RunConfig
from ddsolve.driver import run_sweep, run_verify


def pipeline_reports(side, ppw, px, py, theta=0.3):
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                           theta_inc=theta)
    run = RunConfig(problem=cfg, case_id=f"{side}l_p{px}x{py}")
    return run_verify(run)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        self.elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({self.elapsed:.1f}s)")
        if exc_type is None:
            assert self.elapsed <= self.seconds, \
                f"{self.name} exceeded budget: {self.elapsed:.1f}s > {self.seconds}s"
        return False


def test_criterion_1_residual_fidelity(warm_kernels):
    # 2-wavelength square scattering analog, ppw=15, 2x2 and 4x4 tilings,
    # plus a ppw=50 case in the ten-thousand-dof range; end-to-end residual
    # at most 1e-10 (the published large-scale figure, relaxed one decade
    # for desk scale)
    with _Budget("1 residual-fidelity", 60):
        cases = [(2.0, 15, 2, 2), (2.0, 15, 4, 4), (2.0, 50, 4, 4)]
        worst = 0.0
        for side, ppw, px, py in cases:
            rep = pipeline_reports(side, ppw, px, py).report
            worst = max(worst, rep.residual_inf)
            assert rep.residual_inf <= 1e-10, (side, ppw, px, py, rep.residual_inf)
        print(f"  worst residual_inf = {worst:.3e} over {len(cases)} cases")


def test_criterion_2_decomposition_exactness(warm_kernels):
    # 3x3 grid of (wavenumber-scaled geometry, partition) cases; the middle
    # scale puts k exactly on the first interior Dirichlet eigenvalue of a
    # subdomain, where the loss/gain interface terms must keep every
    # subdomain factorization alive
    with _Budget("2 decomposition-exactness", 120):
        worst = 0.0
        for px, py in [(2, 1), (2, 2), (3, 3)]:
            side_res = float(np.sqrt(px ** 2 + py ** 2) / 2.0)
            for scale in (0.95, 1.0, 1.05):
                result = pipeline_reports(side_res * scale, 12, px, py)
                rel = result.report.rel_diff_monolithic
                worst = max(worst, rel)
                assert rel <= 1e-8, (px, py, scale, rel)
        print(f"  worst solution difference = {worst:.3e} over 9 cases")


def test_criterion_3_dense_kernel(warm_kernels):
    with _Budget("3 dense-kernel", 10):
        rng = np.random.default_rng(42)
        n_2x2_total = 0
        for t in range(200):
            n = int(rng.integers(2, 65))
            M = rand_complex_symmetric(n, int(rng.integers(0, 2 ** 31)))
            if t % 2 == 0:
                # singular leading minors force 2x2 pivots
                for idx in rng.integers(0, n, size=min(3, n)):
                    M[idx, idx] = 0.0
            fac = factor.dense_ldlt_bk(M)
            n_2x2_total += fac.n_2x2
            err = np.linalg.norm(permuted(M, fac.perm) - reconstruct_dense(fac),
                                 "fro")
            assert err <= 1e-13 * np.linalg.norm(M, "fro")
            assert fac.growth <= 2.57
        assert n_2x2_total > 0
        print(f"  200 matrices, {n_2x2_total} 2x2 pivots, growth within 2.57")


def test_criterion_4_block_vs_dense(warm_kernels):
    with _Budget("4 block-vs-dense", 30):
        for seed in range(50):
            K, S = rand_block_system(seed, max_blocks=12, max_size=32,
                                     density=0.35)
            g = blockmat.clique_graph(K)
            order = ordering.reorder(g, K.sizes)
            plan = symbolic.symbolic_factor(g, order, K.sizes)
            F = factor.block_ldlt(K, plan)
            assert F.stats.factor_entries == plan.total_factor_entries
            rng = np.random.default_rng(5000 + seed)
            n = S.shape[0]
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = factor.block_solve(F, b)
            x_ref = np.linalg.solve(S, b)
            assert np.linalg.norm(x - x_ref) <= 1e-11 * np.linalg.norm(x_ref)
        print("  50 systems within 1e-11 of dense; no delayed pivots")


def test_criterion_5_symbolic_soundness(warm_kernels):
    with _Budget("5 symbolic-soundness", 10):
        rng = np.random.default_rng(7)
        # numeric factorization stays inside the predicted pattern
        for seed in range(25):
            K, _ = rand_block_system(seed + 600, max_blocks=10, max_size=6)
            g = blockmat.clique_graph(K)
            order = ordering.reorder(g, K.sizes)
            plan = symbolic.symbolic_factor(g, order, K.sizes)
            F = factor.block_ldlt(K, plan)
            assert_factor_in_pattern(F)
            assert F.stats.factor_entries == plan.total_factor_entries
        # paths and random trees come out fill-free under the built-in order
        for n in range(2, 12):
            g = graph(n, [(i, i + 1) for i in range(n - 1)])
            w = np.ones(n, dtype=int)
            plan = symbolic.symbolic_factor(g, ordering.reorder(g, w), w)
            assert fill_blocks(plan, g) == []
        for seed in range(30):
            n = int(rng.integers(2, 14))
            g = graph(n, [(v, int(rng.integers(0, v))) for v in range(1, n)])
            w = rng.integers(1, 8, size=n)
            plan = symbolic.symbolic_factor(g, ordering.reorder(g, w), w)
            assert fill_blocks(plan, g) == []
        print("  pattern containment and zero-fill tree orders hold")


SWEEP_CASES = [(1.0, 16, 4, 4), (2.0, 16, 4, 4), (3.0, 16, 4, 4),
               (4.0, 16, 4, 4)]


def _sweep_runs():
    return [RunConfig(problem=mm.ProblemConfig(side_lambda=s, ppw=ppw,
                                               px=px, py=py, theta_inc=0.3),
                      case_id=f"{s:g}l")
            for s, ppw, px, py in SWEEP_CASES]


def test_criterion_6_memory_property(warm_kernels):
    # block factor of the largest sweep case takes at most half the bytes of
    # storing the scattered reduced matrix densely
    with _Budget("6 memory-property", 300):
        side, ppw, px, py = SWEEP_CASES[-1]
        cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                               theta_inc=0.3)
        m = mm.build_rect_mesh(side, ppw)
        part = mm.partition_mesh(m, px, py)
        systems = sd.build_subdomain_systems(m, part, cfg)
        reduced = [sd.reduce_domain(s) for s in systems]
        rsys = sd.assemble_reduced(reduced, part)
        g = blockmat.clique_graph(rsys.K)
        order = ordering.reorder(g, rsys.K.sizes)
        plan = symbolic.symbolic_factor(g, order, rsys.K.sizes)
        F = factor.block_ldlt(rsys.K, plan)
        block_bytes = 16 * F.stats.factor_entries
        dense_bytes = 16 * rsys.n_lambda ** 2
        ratio = block_bytes / dense_bytes
        print(f"  n_lambda={rsys.n_lambda} block={block_bytes}B "
              f"dense={dense_bytes}B ratio={ratio:.3f}")
        assert ratio <= 0.5


def test_criterion_7_sweep_complexity_report(warm_kernels, tmp_path):
    with _Budget("7 sweep-complexity", 300):
        csv_path = tmp_path / "sweep.csv"
        reports, slopes = run_sweep(_sweep_runs(), csv_path=str(csv_path))
        assert all(r.status == "ok" for r in reports)
        dofs = [r.n_dofs for r in reports]
        fb = [r.factor_bytes for r in reports]
        assert fb == sorted(fb) and fb[0] < fb[-1]
        slope = slopes["factor_bytes_vs_dofs"]
        assert np.isfinite(slope) and slope > 0
        text = csv_path.read_text()
        assert "# slope factor_bytes_vs_dofs" in text
        print(f"  factor_bytes vs dofs slope = {slope:.3f} "
              f"(dofs {dofs[0]}..{dofs[-1]}); CSV at {csv_path}")
