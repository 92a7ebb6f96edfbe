import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import msgfem.cli
import msgfem.local_problems as local_problems
from msgfem.decomposition import build_decomposition
from msgfem.dg_forms import DGAssembler, GlobalForms, subdomain_dofs
from msgfem.errors import ConfigError, SolverError
from msgfem.gfem import (CoarseSpace, _h_orthonormal, assemble_coarse, error_report,
                         max_sqrt_lambda_next, solve_coarse, solve_msgfem)
from msgfem.local_problems import (MaskedSystem, compute_local_data, particular_solution,
                                   select_coarse, symmetric_part)
from msgfem.mesh import build_structured_mesh, coefficient_field
from msgfem.space_ops import build_pou
from msgfem.verification import fine_solve

G0 = np.sqrt(10.0)


def source_one(x, y):
    return np.ones_like(x)


@pytest.fixture(scope="module")
def problem():
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    decomp = build_decomposition(mesh, 2, 2, 4)
    pou = build_pou(mesh, decomp)
    forms = GlobalForms(DGAssembler(mesh, coef, G0), source_one)
    locals_ = compute_local_data(mesh, forms, decomp, pou, [("fixed", 8)])
    u_fine = fine_solve(forms)
    return mesh, coef, decomp, pou, locals_, forms, u_fine


def _kept(locals_, *rules):
    """Local data as the local stage keeps it for the sweep ``rules``: counts, leading modes."""
    counts = [tuple(select_coarse(d.eigenvalues, r) for r in rules) for d in locals_]
    return [replace(d, modes=d.modes[:, :max(c)], counts=c) for d, c in zip(locals_, counts)]


def _with(forms, **replaced):
    """A copy of ``forms`` with some of its matrices or its load replaced."""
    other = copy.copy(forms)
    vars(other).update(replaced)
    return other


def _doctored(locals_):
    """Local data whose mode 1 on subdomain 0 repeats its mode 0."""
    first = copy.deepcopy(locals_[0])
    first.modes[:, 1] = first.modes[:, 0]
    return [first] + list(locals_[1:])


def _column_modes(n_j):
    """The (j, k) of every coarse column: ``n_j[j]`` modes per subdomain, in order."""
    return np.array([(j, k) for j, n in enumerate(n_j) for k in range(n)],
                    dtype=np.int64).reshape(-1, 2)


def _dependent(j, k):
    """The message of a mode that depends on the modes before it, as a pattern."""
    return rf"^coarse mode \({j}, {k}\) depends on the modes before it in its subdomain$"


# -- per-point oracle: every column rebuilt, dense Gram, band factor ----------

def _band_solve(G, b):
    """Cholesky solve of dense SPD ``G`` in LAPACK lower band storage."""
    low = np.tril(G)
    kd = max(i - c for i, c in zip(*np.nonzero(low)))
    ab = np.zeros((kd + 1, G.shape[0]))
    for d in range(kd + 1):
        ab[d, :G.shape[0] - d] = np.diagonal(G, -d)
    return la.cho_solve_banded((la.cholesky_banded(ab, lower=True), True), b)


def _oracle_point(forms, decomp, locals_, rule):
    """One sweep point built and solved on its own columns alone.

    The local data comes weighted from the local stage.  Returns
    ``(u_s, n_total)``.
    """
    B, F, H = forms.B, forms.F, forms.H
    ndof = B.shape[0]
    u_p = np.zeros(ndof)
    rows, cols, vals = [], [], []
    for j, data in enumerate(locals_):
        dofs = subdomain_dofs(decomp.omega(j))
        u_p[dofs] += data.particular
        n = select_coarse(data.eigenvalues, rule)
        Q = _h_orthonormal(data.modes[:, :n], H[dofs][:, dofs], j)
        for q in Q.T:
            nz = q != 0.0
            rows.append(dofs[nz])
            cols.append(np.full(int(nz.sum()), len(cols), dtype=np.int64))
            vals.append(q[nz])
    if not cols:
        return np.zeros(ndof), 0
    C = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, len(cols))).tocsc()
    G = (C.T @ (B @ C)).toarray()
    G = 0.5 * (G + G.T)
    y = _band_solve(G, C.T @ (F - B @ u_p))
    return np.asarray(C @ y).ravel(), C.shape[1]


def test_single_subdomain_particular_is_exact():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    decomp = build_decomposition(mesh, 1, 2, 2)
    pou = build_pou(mesh, decomp)
    forms = GlobalForms(DGAssembler(mesh, coef, G0), source_one)
    locals_ = compute_local_data(mesh, forms, decomp, pou, [("fixed", 0)])
    [sol] = solve_msgfem(forms, locals_)
    assert sol.n_total == 0
    assert np.all(solve_coarse(assemble_coarse(forms, locals_)[0], sol.n_j) == 0.0)
    u_fine = fine_solve(forms)
    H = forms.H
    diff = sol.u_G - u_fine
    rel = np.sqrt(diff @ (H @ diff)) / np.sqrt(u_fine @ (H @ u_fine))
    assert rel <= 1e-10


def test_empty_selection_returns_particular(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    coarse, u_p = assemble_coarse(forms, _kept(locals_, ("fixed", 0)))
    assert coarse.n_total == 0
    u_s = solve_coarse(coarse, coarse.n_j)
    assert u_s.shape == u_p.shape
    assert np.all(u_s == 0.0)


def test_coarse_columns_supported_on_their_subdomain(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    coarse, _ = assemble_coarse(forms, _kept(locals_, ("fixed", 3)))
    dense = coarse.basis.toarray()
    for col, (j, _k) in enumerate(_column_modes(coarse.n_j)):
        inside = subdomain_dofs(decomp.omega(j))
        outside = np.setdiff1d(np.arange(dense.shape[0]), inside)
        assert np.all(dense[outside, col] == 0.0)
        assert np.any(dense[:, col] != 0.0)


def test_zero_data_gives_zero_correction(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    quiet = [copy.copy(d) for d in locals_]
    for d in quiet:
        d.particular = np.zeros_like(d.particular)
    coarse, u_p = assemble_coarse(_with(forms, F=np.zeros_like(forms.F)),
                                  _kept(quiet, ("fixed", 2)))
    assert np.all(u_p == 0.0)
    u_s = solve_coarse(coarse, coarse.n_j)
    assert np.abs(u_s).max() <= 1e-14


def test_reduced_system_is_symmetric(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    coarse, _ = assemble_coarse(forms, _kept(locals_, ("fixed", 4)))
    G = (coarse.basis.T @ (forms.B @ coarse.basis)).toarray()
    assert np.abs(G - G.T).max() <= 1e-13 * np.abs(G).max()
    assert coarse.gram_B.format == "csr"
    assert (coarse.gram_B != coarse.gram_B.T).nnz == 0
    assert np.abs(coarse.gram_B.toarray() - G).max() <= 1e-13 * np.abs(G).max()


def test_enlarging_coarse_space_never_hurts(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    rules = [("fixed", n) for n in (1, 2, 3, 5, 8)]
    errors = [error_report(forms, sol.u_G, u_fine)[0]
              for sol in solve_msgfem(forms, _kept(locals_, *rules))]
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-10


def test_error_report_trivial_and_surrogate(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    assert error_report(forms, u_fine, u_fine) == (0.0, 0.0)
    coarse, _ = assemble_coarse(forms, _kept(locals_, ("fixed", 2)))
    surrogate = max_sqrt_lambda_next(locals_, coarse.n_j)
    oracle = max(np.sqrt(d.eigenvalues[2]) for d in locals_)
    assert surrogate == oracle


def test_error_report_reuses_norms_bit_for_bit(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    u = u_fine + np.linspace(-1e-3, 1e-3, u_fine.size)
    fresh = GlobalForms(forms.asm, source_one)
    assert error_report(forms, u, u_fine) == error_report(fresh, u, u_fine)
    assert forms.Bplus is forms.Bplus and forms.mass is forms.mass


def test_error_report_rejects_a_non_finite_norm(problem):
    # the squared norms of a solution scaled this far overflow
    forms, u_fine = problem[5], problem[6]
    with pytest.raises(SolverError, match="not finite"):
        error_report(forms, u_fine, 1e200 * u_fine)


def test_dependent_mode_raises_naming_it(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    with pytest.raises(SolverError, match=_dependent(0, 1)):
        assemble_coarse(forms, _doctored(_kept(locals_, ("fixed", 2))))


def test_indefinite_form_reported_as_coercivity_failure(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    coarse, _ = assemble_coarse(_with(forms, B=-forms.H), _kept(locals_, ("fixed", 3)))
    with pytest.raises(SolverError, match="reduced coarse system is not positive definite"):
        solve_coarse(coarse, coarse.n_j)


def test_dependence_across_subdomains_fails_the_factor_naming_it():
    # each subdomain's columns are orthonormalized on their own, so a column
    # that repeats one of another subdomain stays and leaves the Gram singular
    basis = sp.csc_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    coarse = CoarseSpace(basis=basis, gram_B=sp.csr_matrix(basis.T @ basis), rhs=np.ones(2),
                         n_j=np.array([1, 1]))
    with pytest.raises(SolverError, match=r"at coarse column \(1, 0\); the penalty parameter "
                       "is too small for this mesh, or coarse columns of different "
                       "subdomains depend on each other"):
        solve_coarse(coarse, coarse.n_j)


def _planted(coarse, u_p, forms, c):
    """``coarse`` with column ``c`` repeated as an extra, last mode of the next subdomain.

    Returns it and the (j, k) of the later of the two copies.
    """
    j = _column_modes(coarse.n_j)[c, 0]
    t = (j + 1) % coarse.n_j.size
    at = int(coarse.n_j[:t + 1].sum())     # past the columns of subdomain t
    basis = sp.hstack([coarse.basis[:, :at], coarse.basis[:, [c]],
                       coarse.basis[:, at:]], format="csc")
    n_j = coarse.n_j.copy()
    n_j[t] += 1
    planted = CoarseSpace(basis=basis, gram_B=symmetric_part(basis.T @ (forms.B @ basis)),
                          rhs=basis.T @ (forms.F - forms.B @ u_p), n_j=n_j)
    return planted, _column_modes(n_j)[max(at, c + (c >= at))]


def test_dependence_across_subdomains_fails_at_every_placement(problem):
    # whichever column is repeated under the next subdomain, the later copy's
    # pivot is roundoff of either sign, and the factor names that copy
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    coarse, u_p = assemble_coarse(forms, _kept(locals_, ("fixed", 3)))
    assert coarse.n_total == 12
    for c in range(coarse.n_total):
        planted, later = _planted(coarse, u_p, forms, c)
        with pytest.raises(SolverError, match=rf"at coarse column \({later[0]}, "
                           rf"{later[1]}\); the penalty parameter is too small"):
            solve_coarse(planted, planted.n_j)


def test_long_lived_matrices_are_stored_compact(problem):
    """The run-long forms and the sweep-long Gram own arrays of exactly nnz entries."""
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    fresh = GlobalForms(forms.asm, source_one)
    coarse, _ = assemble_coarse(fresh, _kept(locals_, ("fixed", 3)))
    pairs = [(getattr(fresh, kind), forms.asm.matrix(None, kind))
             for kind in ("B", "H", "Bplus", "mass")]
    pairs.append((coarse.gram_B, symmetric_part(coarse.basis.T @ (fresh.B @ coarse.basis))))
    for M, ref in pairs:
        assert M.format == ref.format == "csr"
        for name in ("data", "indices", "indptr"):
            a, b = getattr(M, name), getattr(ref, name)
            assert a.flags.owndata
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert M.data.size == M.indices.size == M.nnz


def test_solution_container_consistency(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    [sol] = solve_msgfem(forms, _kept(locals_, ("fixed", 3)))
    rel_bplus, rel_l2 = error_report(forms, sol.u_G, u_fine)
    assert 0.0 <= rel_bplus < 0.2 and rel_l2 >= 0.0


@pytest.mark.parametrize("threads", [1, 2])
def test_weights_read_once_and_particular_is_the_blend(problem, threads):
    """A local and a coarse stage read each subdomain's weight once.

    The particular part is, bit for bit, the unweighted local source
    solutions blended through the partition of unity: each scaled by its
    subdomain's dof weights and added in subdomain order.
    """
    mesh, coef, decomp, pou, _, forms, _ = problem
    calls = []

    class Counting(list):
        def __getitem__(self, j):
            calls.append(j)
            return super().__getitem__(j)

    rules = [("fixed", 2), ("fixed", 3)]
    locals_ = compute_local_data(mesh, forms, decomp, Counting(pou), rules, threads=threads)
    solutions = solve_msgfem(forms, locals_)
    assert sorted(calls) == list(range(decomp.n_subdomains))

    blend = np.zeros(forms.B.shape[0])
    for j in range(decomp.n_subdomains):
        omega = decomp.omega(j)
        oms = decomp.omega_star(j)
        up = particular_solution(omega, oms, MaskedSystem(forms, oms))
        blend[subdomain_dofs(omega)] += pou[j] * up
    coarse, u_p = assemble_coarse(forms, locals_)
    assert u_p.tobytes() == blend.tobytes()
    for sol in solutions:
        assert np.array_equal(sol.u_G, u_p + solve_coarse(coarse, sol.n_j))


# -- one coarse build per sweep against the per-point oracle ------------------

def _assert_matches_oracle(problem, locals_, rules, solutions):
    mesh, coef, decomp, pou, _, forms, _ = problem
    coarse, u_p = assemble_coarse(forms, _kept(locals_, *rules))
    for rule, sol in zip(rules, solutions):
        u_s, n_total = _oracle_point(forms, decomp, locals_, rule)
        assert np.array_equal(solve_coarse(coarse, sol.n_j), u_s), rule
        assert np.array_equal(sol.u_G, u_p + u_s), rule
        assert sol.n_total == n_total, rule
        assert sol.n_j.tolist() == [select_coarse(d.eigenvalues, rule) for d in locals_]


def test_one_pass_sweep_matches_per_point_oracle(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    rules = [("fixed", n) for n in (1, 2, 3, 4)]
    _assert_matches_oracle(problem, locals_, rules,
                           solve_msgfem(forms, _kept(locals_, *rules)))
    for tau in (0.05, 0.2):
        rule = ("threshold", tau)
        _assert_matches_oracle(problem, locals_, [rule],
                               solve_msgfem(forms, _kept(locals_, rule)))
    # uneven threshold selections ([4, 3, 3, 4] and [3, 2, 2, 3]) as subsets
    # of one fixed build
    coarse, _ = assemble_coarse(forms, _kept(locals_, ("fixed", 4)))
    assert coarse.dropped == []
    for tau in (0.05, 0.2):
        rule = ("threshold", tau)
        n_j = [select_coarse(d.eigenvalues, rule) for d in locals_]
        assert len(set(n_j)) == 2
        u_s = solve_coarse(coarse, n_j)
        assert np.array_equal(
            u_s, _oracle_point(forms, decomp, locals_, rule)[0])
    with pytest.raises(ValueError, match="exceeds the assembled"):
        solve_coarse(coarse, [5, 4, 4, 4])


def test_duplicate_mode_fails_exactly_the_builds_holding_it(problem):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    rules = [("fixed", n) for n in (1, 2, 3, 4)]
    doctored = _doctored(_kept(locals_, *rules))
    # a sweep builds its columns once, from the modes of its largest point
    with pytest.raises(SolverError, match=_dependent(0, 1)):
        solve_msgfem(forms, doctored)
    for rule in rules[1:]:
        with pytest.raises(SolverError, match=_dependent(0, 1)):
            _oracle_point(forms, decomp, doctored, rule)
    solutions = solve_msgfem(forms, _kept(doctored, rules[0]))
    _assert_matches_oracle(problem, doctored, rules[:1], solutions)
    assert solutions[0].n_total == 4


def test_duplicate_mode_is_one_pipeline_failure_line(tmp_path, capsys, monkeypatch):
    def doctored(*args, **kwargs):
        return _doctored(compute_local_data(*args, **kwargs))

    monkeypatch.setattr(msgfem.cli, "compute_local_data", doctored)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\n"
                   "coarse_n_sweep = 1,2,3\nchecks = off\n")
    assert msgfem.cli.main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("pipeline failure: coarse mode (0, 1) depends on "
                                       "the modes before it in its subdomain\n")
    assert not (tmp_path / "o" / "errors.csv").exists()


@pytest.mark.parametrize("rules", [
    [("fixed", 1), ("fixed", 3), ("fixed", 2)],
    [("threshold", 0.2), ("threshold", 0.05)],
], ids=["fixed", "threshold"])
def test_records_carry_their_dofs_and_per_rule_counts(problem, rules):
    """The coarse stage reads a subdomain's support and its sweep counts off its record."""
    mesh, coef, decomp, pou, _, forms, _ = problem
    locals_ = compute_local_data(mesh, forms, decomp, pou, rules)
    for j, d in enumerate(locals_):
        assert np.array_equal(d.dofs, subdomain_dofs(decomp.omega(j)))
        assert d.counts == tuple(select_coarse(d.eigenvalues, r) for r in rules)
        assert d.modes.shape[1] == max(d.counts)
    solutions = solve_msgfem(forms, locals_)
    assert len(solutions) == len(rules)
    for i, sol in enumerate(solutions):
        assert sol.n_j.tolist() == [d.counts[i] for d in locals_]
    if rules[0][0] == "threshold":
        # the counts differ between subdomains, so each point reads its own
        assert len({d.counts for d in locals_}) > 1


def test_sweep_beyond_available_modes_names_the_subdomain(problem, monkeypatch):
    mesh, coef, decomp, pou, locals_, forms, u_fine = problem
    fewest = min(range(len(locals_)), key=lambda j: locals_[j].eigenvalues.size)
    n = locals_[fewest].eigenvalues.size
    built = []
    monkeypatch.setattr(local_problems, "MaskedSystem",
                        lambda *a: built.append(a) or MaskedSystem(*a))
    for threads in (1, 2):
        with pytest.raises(ConfigError, match=f"^requested {n + 1} coarse modes, but "
                                              f"subdomain {fewest} has only {n}$"):
            compute_local_data(mesh, forms, decomp, pou, [("fixed", 2), ("fixed", n + 1)],
                               threads=threads)
    # raised from the geometry, before any subdomain's system is built
    assert built == []



@pytest.mark.parametrize("spec", ["constant:1", "checkerboard:10000:8", "channels:100:4",
                                  "log_uniform:1e-3:1e3"])
def test_threshold_rule_certifies_its_accuracy(spec):
    """``threshold:tau`` bounds the relative error by ``tau``.

    The rule keeps every mode with ``sqrt(lambda) >= tau``, so the surrogate
    ``max sqrt(lambda_{n+1})`` is below ``tau``, and criterion 7 (error at
    most the surrogate) then bounds the error.  At (32, 4) with 3
    oversampling layers the largest error-to-surrogate ratio of these eight
    rows is 0.46 (the checkerboard at tau = 0.03).
    """
    mesh = build_structured_mesh(32)
    decomp = build_decomposition(mesh, 4, 2, 3)
    pou = build_pou(mesh, decomp)
    forms = GlobalForms(DGAssembler(mesh, coefficient_field(mesh, spec, seed=0), G0), source_one)
    rules = [("threshold", 0.1), ("threshold", 0.03)]
    locals_ = compute_local_data(mesh, forms, decomp, pou, rules)
    u_fine = fine_solve(forms)
    for (_, tau), sol in zip(rules, solve_msgfem(forms, locals_)):
        err, _ = error_report(forms, sol.u_G, u_fine)
        assert err <= sol.max_sqrt_lambda_next < tau, (tau, err, sol.max_sqrt_lambda_next)

# -- H-orthonormal subdomain columns -----------------------------------------

def _spd(rng, m):
    """A sparse SPD matrix with a spread diagonal, standing in for ``H``."""
    off = -0.4 * rng.random(m - 1)
    diag = 1.0 + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    return sp.diags([off, diag * 10.0 ** rng.uniform(0, 3, m), off], [-1, 0, 1],
                    format="csr")


def _planted_columns(rng, local: bool):
    """Random columns with planted dependencies, and the planted indices.

    With ``local`` each column lives on a window of rows that moves down with
    the column index, as blended modes live on the dofs their weight covers.
    The planted columns copy, combine or zero the first ten columns.
    """
    m, n = 120, 70
    X = rng.standard_normal((m, n))
    if local:
        start = np.sort(rng.integers(0, m - 30, n))
        rows = np.arange(m)[:, None]
        X *= (rows >= start) & (rows < start + 30)
    planted = np.sort(rng.choice(np.arange(10, n), 6, replace=False))
    for i in planted:
        kind = rng.integers(3)
        if kind == 0:        # exact duplicate of an earlier column
            X[:, i] = X[:, rng.integers(10)]
        elif kind == 1:      # dependent up to 1e-12
            a, b = rng.choice(10, 2, replace=False)
            X[:, i] = X[:, a] - 0.5 * X[:, b] + 1e-12 * rng.standard_normal(m)
        else:                # zero column
            X[:, i] = 0.0
    return X, planted


def _assert_h_orthonormal(Q, H):
    assert np.abs(Q.T @ (H @ Q) - np.eye(Q.shape[1])).max() <= 1e-12


@pytest.mark.parametrize("local", [False, True])
def test_orthonormalization_raises_at_planted_dependencies(local):
    rng = np.random.default_rng(7)
    for _ in range(25):
        X, planted = _planted_columns(rng, local)
        H = _spd(rng, X.shape[0])
        with pytest.raises(SolverError, match=_dependent(3, planted[0])):
            _h_orthonormal(X, H, 3)
        clean = np.setdiff1d(np.arange(X.shape[1]), planted)
        Xk = X[:, clean]
        Q = _h_orthonormal(Xk, H, 3)
        _assert_h_orthonormal(Q, H)
        # same span: each unplanted column is its H-projection onto Q
        assert np.abs(Q @ (Q.T @ (H @ Xk)) - Xk).max() <= 1e-10 * np.abs(Xk).max()
        # each planted column raises when it follows the unplanted columns before it
        for i in planted:
            before = clean[clean < i]
            with pytest.raises(SolverError, match=_dependent(3, before.size)):
                _h_orthonormal(X[:, np.r_[before, i]], H, 3)


def test_orthonormalization_keeps_a_small_genuine_residual():
    """A column with relative H-residual 1e-7, as modes at contrast 1e8 have, is kept."""
    rng = np.random.default_rng(5)
    m = 60
    H = _spd(rng, m)
    X = rng.standard_normal((m, 6))
    # H = Rᵀ R, so the H inner product of x and y is the Euclidean one of R x and R y
    R = la.cholesky(H.toarray())
    Z, _ = np.linalg.qr(R @ X[:, :5])
    w = rng.standard_normal(m)
    w -= Z @ (Z.T @ w)
    w = la.solve_triangular(R, w / np.linalg.norm(w))     # H-unit, H-orthogonal to X[:, :5]
    u = X[:, :5] @ rng.standard_normal(5)
    X[:, 5] = u + 1e-7 * np.sqrt(u @ (H @ u)) * w
    Q = _h_orthonormal(X, H, 0)
    assert Q.shape == (m, 6)
    _assert_h_orthonormal(Q, H)


def test_orthonormal_columns_are_nested():
    # the columns before the first planted one, 16 here
    rng = np.random.default_rng(11)
    X, planted = _planted_columns(rng, True)
    H = _spd(rng, X.shape[0])
    X = X[:, :planted[0]]
    Q = _h_orthonormal(X, H, 0)
    for p in (1, 9, 10, planted[0] - 1):
        assert np.array_equal(_h_orthonormal(X[:, :p], H, 0), Q[:, :p])


def test_orthonormalization_edge_sizes():
    H = sp.identity(3, format="csr")
    assert _h_orthonormal(np.zeros((3, 0)), H, 0).shape == (3, 0)
    with pytest.raises(SolverError, match=_dependent(0, 0)):
        _h_orthonormal(np.zeros((3, 3)), H, 0)
    assert np.array_equal(_h_orthonormal(np.eye(3), H, 0), np.eye(3))


def test_coarse_solve_memory_follows_the_band():
    """On a banded Gram the coarse solve stores the band, not an n × n block."""
    n, width, per = 2000, 30, 4
    rng = np.random.default_rng(3)
    # column c lives on rows 2c .. 2c + width - 1, so it meets 14 columns each side
    rows = 2 * np.arange(n)[:, None] + np.arange(width)
    X = sp.csc_matrix((rng.standard_normal(n * width),
                       (rows.ravel(), np.repeat(np.arange(n), width))),
                      shape=(2 * n + width, n))
    G = (X.T @ X).tocsr()
    rhs = rng.standard_normal(n)
    coarse = CoarseSpace(basis=X, gram_B=G, rhs=rhs, n_j=np.full(n // per, per))
    tracemalloc.start()
    try:
        u_s = solve_coarse(coarse, coarse.n_j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    y = la.solve(G.toarray(), rhs, assume_a="pos")
    assert np.abs(u_s - X @ y).max() <= 1e-8 * np.abs(X @ y).max()
