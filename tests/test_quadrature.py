import numpy as np
import pytest

from waveop_lab.errors import AccuracyError, InvalidInputError
from waveop_lab.quadrature import (_leggauss, ball_grid, cap_area, gauss_rule,
                                   integrate_adaptive, integrate_batch, log_trapezoid_rule,
                                   panel_rule)
from waveop_lab.singular import _cell_measures


def test_polynomial():
    val, err = integrate_adaptive(lambda s: s ** 3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-14


def test_cutoff_plateau_moment():
    # the chi == 1 envelope case for the smallest kernel value
    val, _ = integrate_adaptive(lambda s: s ** 3, 0.0, 0.1)
    assert abs(val - 2.5e-5) < 1e-18


@pytest.mark.parametrize("omega", [50.0, 200.0, 1000.0])
def test_oscillatory_closed_form(omega):
    val, _ = integrate_adaptive(lambda s: np.exp(1j * omega * s), 0.0, 10.0,
                                rel_tol=1e-11, freq=omega)
    exact = (np.exp(10j * omega) - 1.0) / (1j * omega)
    assert abs(val - exact) <= 1e-9


def test_exponential():
    val, _ = integrate_adaptive(lambda s: np.exp(-s), 0.0, 30.0)
    assert abs(val - (1.0 - np.exp(-30.0))) < 1e-12


def test_accuracy_error_carries_best_estimate():
    with pytest.raises(AccuracyError) as exc:
        integrate_adaptive(lambda s: np.exp(1j * 5e4 * s), 0.0, 10.0,
                           rel_tol=1e-12, freq=0.0, max_panels=8)
    assert exc.value.best is not None
    assert exc.value.err_est > 0


# (integrand, a, b, breakpoints): scales from 1e-6 to 1e6, so one
# tolerance shared by all problems would under-resolve the small ones
PROBLEMS = [
    (lambda x: 1e6 * np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, (0.3,)),
    (lambda x: 1e-3 * np.abs(x - 0.7) ** 1.5, 0.0, 1.0, (0.7, 0.7)),
    (lambda x: 1e-6 * x ** 3, 0.0, 2.0, ()),
    (lambda x: np.exp(-x) * np.cos(5.0 * x), 0.0, 30.0, (4.0, 40.0)),
    (lambda x: np.log(np.abs(x - 1.5)), 1.0, 3.0, (1.5, 2.5)),
]


def _batched(fns, calls=None):
    def f(k, x):
        if calls is not None:
            calls.append(set(np.unique(k).tolist()))
        out = np.empty(x.shape, dtype=np.result_type(*(g(x[:1]) for g in fns)))
        for j, g in enumerate(fns):
            out[k == j] = g(x[k == j])
        return out
    return f


def _padded(brks):
    width = max(len(b) for b in brks)
    return np.array([list(b) + [np.nan] * (width - len(b)) for b in brks])


def test_batch_matches_one_problem_calls():
    fns, a, b, brks = zip(*PROBLEMS)
    calls = []
    vals, errs = integrate_batch(_batched(fns, calls), a, b, breakpoints=_padded(brks))
    for j, (g, lo, hi, brk) in enumerate(PROBLEMS):
        val, err = integrate_adaptive(g, lo, hi, breakpoints=brk)
        assert abs(vals[j] - val) <= 1e-12 * abs(val)
        assert errs[j] == pytest.approx(err, rel=1e-9)
    # the problems converge in different rounds, and a converged one is
    # not evaluated again
    rounds = [sum(j in ks for ks in calls) for j in range(len(fns))]
    assert len(set(rounds)) > 2
    for j, n in enumerate(rounds):
        assert all(j in ks for ks in calls[:n])


def test_batch_oscillatory_with_freq():
    omega = np.array([50.0, 200.0, 1000.0])
    fns = [lambda x, w=w: np.exp(1j * w * x) for w in omega]
    vals, _ = integrate_batch(_batched(fns), np.zeros(3), np.full(3, 10.0),
                              rel_tol=1e-11, freq=omega)
    for j, w in enumerate(omega):
        val, _ = integrate_adaptive(fns[j], 0.0, 10.0, rel_tol=1e-11, freq=w)
        assert abs(vals[j] - val) <= 1e-12 * abs(val)
        assert abs(vals[j] - (np.exp(10j * w) - 1.0) / (1j * w)) <= 1e-9


def test_batch_accuracy_error_names_stalled_problem():
    slow = lambda s: np.exp(1j * 5e4 * s)
    fns = [lambda s: np.exp(-s) + 0j, slow, lambda s: s + 0j]
    with pytest.raises(AccuracyError) as exc:
        integrate_batch(_batched(fns), [0.0, 0.0, 0.0], [1.0, 10.0, 1.0],
                        rel_tol=1e-12, max_panels=8)
    with pytest.raises(AccuracyError) as one:
        integrate_adaptive(slow, 0.0, 10.0, rel_tol=1e-12, max_panels=8)
    assert "problem 1" in str(exc.value)
    assert exc.value.best == pytest.approx(one.value.best, rel=1e-12)
    assert exc.value.err_est == pytest.approx(one.value.err_est, rel=1e-12)


def test_empty_interval_rejected():
    with pytest.raises(InvalidInputError):
        integrate_adaptive(lambda s: s, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="problem 1"):
        integrate_batch(lambda k, s: s, [0.0, 1.0], [1.0, 1.0])


def test_gauss_rule_unit_density():
    nodes, weights = gauss_rule(12, -0.5, 2.5)
    assert abs(weights.sum() - 3.0) < 1e-12
    assert np.all(nodes > -0.5) and np.all(nodes < 2.5)


# uneven panel edges: log-spaced, and graded geometrically toward 0 as
# the theta panels of the representation check
UNEVEN_EDGES = {"geomspace": np.geomspace(0.5, 40.0, 7),
                "graded": np.concatenate([[0.0], 2.0 ** np.arange(-12, 1, dtype=float)])}


@pytest.mark.parametrize("name", sorted(UNEVEN_EDGES))
@pytest.mark.parametrize("n", [4, 8, 16])
def test_panel_rule_exact_for_degree_2n_minus_1(name, n):
    edges = UNEVEN_EDGES[name]
    nodes, weights = panel_rule(edges, n)
    assert nodes.shape == weights.shape == (edges.size - 1, n)
    for k in range(2 * n):
        want = (edges[-1] ** (k + 1) - edges[0] ** (k + 1)) / (k + 1)
        got = np.sum(weights * nodes ** k)
        assert abs(got - want) <= 1e-14 * want, (k, got, want)


@pytest.mark.parametrize("edges", [np.linspace(0.0, 1.0, 257), np.linspace(0.05, 0.1, 68),
                                   np.geomspace(5.0, 1e4, 37), UNEVEN_EDGES["graded"]],
                         ids=["linspace-bump", "linspace-psi", "geomspace", "graded"])
@pytest.mark.parametrize("n", [8, 16])
def test_panel_rule_matches_hand_formula(edges, n):
    # the midpoint-plus-half-width form the fixed rules were built by: the
    # reports keep their bits only if the shared rule reproduces it
    x, w = _leggauss(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes, weights = panel_rule(edges, n)
    assert np.array_equal(nodes, mid[:, None] + half[:, None] * x[None, :])
    assert np.array_equal(weights, half[:, None] * w[None, :])


@pytest.mark.parametrize("a", [0.0, -0.5])
def test_gauss_rule_column_of_upper_ends(a):
    b = np.array([0.3, 1.0, 2.0 + 1e-9, 7.25, 1e3])
    nodes, weights = gauss_rule(48, a, b[:, None])
    assert nodes.shape == weights.shape == (b.size, 48)
    for row, bi in enumerate(b):
        one_nodes, one_weights = gauss_rule(48, a, bi)
        assert np.array_equal(nodes[row], one_nodes)
        assert np.array_equal(weights[row], one_weights)
    if a == 0.0:
        # the radial rules' former form 0.5 b (x + 1), 0.5 b w
        x, w = _leggauss(48)
        assert np.array_equal(nodes, 0.5 * b[:, None] * (x[None, :] + 1.0))
        assert np.array_equal(weights, 0.5 * b[:, None] * w[None, :])


@pytest.mark.parametrize("a, b, n", [(1e-3, 0.1, 24), (1e-3, 0.1, 2), (2e-4, 0.1, 7),
                                     (0.02, 0.1, 3)])
def test_log_trapezoid_rule_matches_former_k3_rule(a, b, n):
    t = np.linspace(np.log(a), np.log(b), n)
    lambdas = np.exp(t)
    wt = np.full(n, t[1] - t[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    nodes, weights = log_trapezoid_rule(a, b, n)
    assert np.array_equal(nodes, lambdas)
    assert np.array_equal(weights, wt * lambdas)


def test_ball_grid_volume_and_moments():
    g = ball_grid(1.0, 8, 6, 12)
    assert g.size == 8 * 6 * 12
    assert abs(g.weights.sum() - 4 * np.pi / 3) < 1e-10
    assert abs(g.weights @ np.sum(g.nodes ** 2, axis=1) - 4 * np.pi / 5) < 1e-10
    assert abs(g.weights @ g.nodes[:, 0]) < 1e-12
    # degree <= 2 polynomial exactness
    f = 1.0 + g.nodes[:, 0] - 2 * g.nodes[:, 1] * g.nodes[:, 2] + g.nodes[:, 2] ** 2
    assert abs(g.weights @ f - (4 * np.pi / 3 + 4 * np.pi / 15)) < 1e-10


def test_ball_grid_radial_consistency():
    g = ball_grid(2.0, 12, 8, 16)
    f = lambda r: np.exp(-r ** 2) * np.cos(3 * r)
    r, w = gauss_rule(60, 0.0, 2.0)
    i1 = 4 * np.pi * np.sum(w * r ** 2 * f(r))
    i3 = g.weights @ f(np.linalg.norm(g.nodes, axis=1))
    assert abs(i3 - i1) / abs(i1) < 1e-9


def test_ball_grid_min_counts():
    with pytest.raises(InvalidInputError):
        ball_grid(1.0, 1, 6, 12)


def test_cap_area_values():
    assert abs(cap_area(1.0, 0.0, 2.0) - 4 * np.pi) < 1e-14
    assert cap_area(3.0, 0.0, 2.0) == 0.0
    assert abs(cap_area(1.0, 1.0, 1.0) - np.pi) < 1e-14


def test_cap_area_properties():
    rho = np.linspace(0.01, 6.0, 800)
    h = rho[1] - rho[0]
    a = cap_area(rho, 1.3, 2.0)
    assert np.all(a <= 4 * np.pi * rho ** 2 + 1e-12)
    # continuity: increments bounded by slope * step (no jumps)
    assert np.max(np.abs(np.diff(a))) < 8 * np.pi * rho.max() * h * 1.5
    assert np.all(cap_area(rho, 1.3, 2.2) >= a - 1e-12)   # monotone in R


def test_homogeneous_measure():
    # cells of the homogeneous line (R, r^2 dr) used for level-set masses
    edges = np.array([0.0, 1.0, 2.0, 4.0])
    assert _cell_measures(edges, "omega") == pytest.approx([1 / 3, 7 / 3, 56 / 3])
    assert _cell_measures(edges, "lebesgue3d") == pytest.approx(
        4 * np.pi * np.array([1 / 3, 7 / 3, 56 / 3]))
    with pytest.raises(InvalidInputError):
        _cell_measures(edges, "counting")
    # doubling with ratio <= 8 for centered dilates
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.uniform(0.5, 50.0)
        h = rng.uniform(0.01, c)
        m1, = _cell_measures(np.array([c - h, c + h]), "omega")
        m2, = _cell_measures(np.array([c - 2 * h, c + 2 * h]), "omega")
        assert m2 <= 8.0 * m1 + 1e-12
