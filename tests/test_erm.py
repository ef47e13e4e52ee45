import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from obfusgame import erm, validate
from obfusgame.errors import ConvergenceError
from obfusgame.erm import (
    Classifier,
    Dataset,
    check_classifier_gap,
    check_empirical_gap,
    empirical_risk,
    generate_synthetic,
    perturb_inputs,
    train_erm,
)


def gradient(w, data, lam):
    """Gradient of the regularized objective, recomputing X w: an oracle
    independent of train_erm's per-iterate state."""
    margins = data.labels * (data.features @ w)
    coeff = -data.labels * special.expit(-margins)
    return lam * w + data.features.T @ coeff / data.n


def scipy_minimizer(data, lam):
    """Independent optimizer used as the training oracle."""

    def objective(w):
        return empirical_risk(Classifier(w), data, lam)

    res = optimize.minimize(objective, np.zeros(data.d), method="L-BFGS-B",
                            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 5000})
    return res.x, res.fun


class TestGenerateSynthetic:
    def test_determinism(self):
        a = generate_synthetic(50, 3, 2.0, seed=9)
        b = generate_synthetic(50, 3, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_degenerate_separation_is_standard_normal(self):
        data = generate_synthetic(50_000, 1, 0.0, seed=0)
        assert set(np.unique(data.labels)) == {-1.0, 1.0}
        assert abs(data.features.mean()) < 0.02
        assert data.features.var() == pytest.approx(1.0, rel=0.02)
        assert abs(data.labels.mean()) < 0.02

    def test_high_separation_is_linearly_separable(self):
        data = generate_synthetic(500, 2, 10.0, seed=1)
        f = train_erm(data, lam=0.01)
        accuracy = np.mean(np.sign(data.features @ f.weights) == data.labels)
        assert accuracy >= 0.99


class TestTrainErm:
    def test_symmetric_data_gives_zero(self):
        features = np.zeros((4, 3))
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        f = train_erm(Dataset(features, labels), lam=1.0)
        assert np.allclose(f.weights, 0.0, atol=1e-8)

    def test_huge_regularizer_dominates(self):
        data = generate_synthetic(100, 4, 3.0, seed=2)
        f = train_erm(data, lam=1e6)
        max_norm = np.max(np.linalg.norm(data.features, axis=1))
        # ||f|| <= (bound on the logistic loss's derivative, 1) * max ||x|| / lam
        assert np.linalg.norm(f.weights) <= 1.0 * max_norm / 1e6

    def test_matches_independent_optimizer(self):
        data = generate_synthetic(200, 5, 4.0, seed=3)
        f = train_erm(data, lam=0.1)
        _, obj_ref = scipy_minimizer(data, 0.1)
        obj = empirical_risk(f, data, 0.1)
        assert obj == pytest.approx(obj_ref, abs=1e-6)

    @pytest.mark.parametrize(
        "seed, n, d, separation, lam",
        [
            (30, 200, 5, 4.0, 0.1),
            (31, 150, 3, 2.0, 0.5),
            (32, 300, 5, 0.0, 0.05),
            (33, 100, 8, 3.0, 1.0),
            (34, 400, 2, 1.0, 0.2),
            (35, 300, 3, 9.0, 0.01),  # near-separable: weak curvature away from 0
        ],
    )
    def test_weights_match_independent_optimizer(self, seed, n, d, separation, lam):
        data = generate_synthetic(n, d, separation, seed)
        f = train_erm(data, lam)
        w_ref, _ = scipy_minimizer(data, lam)
        # the objective is lam-strongly convex, so any w lies within
        # ||gradient(w)|| / lam of the minimizer
        bound = (
            np.linalg.norm(gradient(f.weights, data, lam))
            + np.linalg.norm(gradient(w_ref, data, lam))
        ) / lam
        assert np.linalg.norm(f.weights - w_ref) <= bound

    def test_max_iter_exhausted_raises(self, monkeypatch):
        data = generate_synthetic(200, 5, 4.0, seed=36)
        monkeypatch.setattr(erm, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            train_erm(data, lam=0.1)

    def test_gradient_norm_below_tol(self):
        data = generate_synthetic(150, 4, 2.0, seed=4)
        f = train_erm(data, lam=0.5, tol=1e-8)
        g = gradient(f.weights, data, 0.5)
        assert np.linalg.norm(g) <= 1e-8

    def test_minimizer_beats_random_perturbations(self):
        data = generate_synthetic(120, 3, 2.0, seed=5)
        f = train_erm(data, lam=0.2)
        base = empirical_risk(f, data, 0.2)
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(1000):
            w = f.weights + rng.standard_normal(3) * rng.uniform(1e-4, 1.0)
            assert empirical_risk(Classifier(w), data, 0.2) >= base - 1e-12


def _sigmoid(z):
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def reference_train_erm(data, lam, tol=1e-8, max_iter=200, halvings=None):
    """train_erm's damped Newton loop with the gradient, the Hessian and
    the objective each recomputing X w and exp(-|X w|) from w.  A list
    given as halvings gets each Newton step's count of step halvings."""
    X, y, n = data.features, data.labels, data.n

    def objective(w):
        return 0.5 * lam * float(w @ w) + float(np.mean(erm._logistic_loss(y * (X @ w))))

    def grad(w):
        return lam * w + X.T @ (-y * _sigmoid(-(y * (X @ w)))) / n

    def hessian(w):
        p = _sigmoid(X @ w)
        return lam * np.eye(data.d) + (X.T * (p * (1.0 - p))) @ X / n

    w = np.zeros(data.d)
    obj = objective(w)
    for _ in range(max_iter):
        g = grad(w)
        if float(np.linalg.norm(g)) <= tol:
            return w
        direction = np.linalg.solve(hessian(w), g)
        decrement = float(g @ direction)
        step = 1.0
        for _ in range(60):
            w_new = w - step * direction
            obj_new = objective(w_new)
            if obj_new <= obj - 1e-4 * step * decrement or step * decrement < 1e-14 * max(1.0, abs(obj)):
                break
            step *= 0.5
        if halvings is not None:
            halvings.append(round(-math.log2(step)))
        w, obj = w_new, obj_new
    raise ConvergenceError("reference loop did not converge")


class TestNewtonStateUnchanged:
    """train_erm carries X w, exp(-|X w|) and the objective from the accepted
    line-search step; that must not move any iterate."""

    def test_suite_datasets_train_to_equal_weights(self, monkeypatch):
        train, stacks = erm.train_erms, []

        def recording(datasets, lam, *args, **kwargs):
            stacks.append((datasets, lam, args, kwargs))
            return train(datasets, lam, *args, **kwargs)

        monkeypatch.setattr(erm, "train_erms", recording)
        validate.run_lemma_suite("lemma1", trials=10, base_seed=0)  # seeds 0-9, clean and perturbed
        validate.run_scaling_suite(trials_per_point=2, base_seed=0)  # the 100k f* set, then 20 perturbed
        assert [len(datasets) for datasets, *_ in stacks] == [20, 1, 20]  # each suite's trainings as one stack
        assert stacks[1][0][0].n == 100_000
        for datasets, lam, args, kwargs in stacks:
            for data in datasets:
                assert np.array_equal(
                    train([data], lam, *args, **kwargs)[0].weights, reference_train_erm(data, lam, *args, **kwargs)
                )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_problems_train_to_equal_weights(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n, d = int(rng.integers(2, 300)), int(rng.integers(1, 9))
        data = generate_synthetic(n, d, float(rng.uniform(0.0, 10.0)), seed)
        lam = float(10 ** rng.uniform(-3, 1))
        assert np.array_equal(train_erm(data, lam).weights, reference_train_erm(data, lam))


def _symmetric_set(n, d, seed):
    """Each feature row twice, once per label: the gradient at w = 0 is 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.standard_normal((n // 2, d))
    return Dataset(np.repeat(rows, 2, axis=0), np.tile([1.0, -1.0], n // 2))


def _separable_set(seed):
    """40 rows in 3-D labelled by the sign of their first feature, with row
    scales spread over orders of magnitude.  At Lambda = 1e-3, seed 3's
    sixth Newton step halves twice and seed 113's tenth once."""
    rng = np.random.Generator(np.random.PCG64(seed))
    features = rng.standard_normal((40, 3)) * np.exp(2.0 * rng.standard_normal((40, 1)))
    return Dataset(features, np.where(features[:, 0] > 0, 1.0, -1.0))


class TestStackedTraining:
    """train_erms steps a stack of same-shape problems together; each
    problem's weights are those of training it alone, bit for bit."""

    LAM = 1e-3

    def _mixed(self):
        return [
            generate_synthetic(40, 3, 2.0, seed=1),
            _separable_set(seed=3),
            _symmetric_set(40, 3, seed=3),
            generate_synthetic(40, 3, 0.5, seed=4),
            _separable_set(seed=113),
        ]

    def test_mixed_stack_trains_like_each_problem_alone(self):
        stack = self._mixed()
        logs = [[] for _ in stack]
        expected = [reference_train_erm(data, self.LAM, halvings=log) for data, log in zip(stack, logs)]
        # the stack mixes Newton step counts and line-search halvings
        assert len({len(log) for log in logs}) >= 4
        assert {max(log, default=0) for log in logs} == {0, 1, 2}
        assert logs[2] == [] and not np.any(expected[2])  # the symmetric set stops at w = 0
        for f, w in zip(erm.train_erms(stack, self.LAM), expected):
            assert np.array_equal(f.weights, w)

    def test_smallest_shape(self):
        stack = [
            Dataset([[1.0], [2.0]], [1.0, -1.0]),
            Dataset([[0.5], [-0.3]], [1.0, 1.0]),
            Dataset([[1.0], [1.0]], [1.0, -1.0]),
            Dataset([[3.0], [-2.0]], [1.0, -1.0]),  # separable
        ]
        for lam in (self.LAM, 1.0):
            for f, data in zip(erm.train_erms(stack, lam), stack):
                assert np.array_equal(f.weights, reference_train_erm(data, lam))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_stacks_train_to_equal_weights(self, seed):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        n, d = int(rng.integers(2, 300)), int(rng.integers(1, 9))
        lam = float(10 ** rng.uniform(-3, 1))
        stack = [generate_synthetic(n, d, float(rng.uniform(0.0, 10.0)), seed + 1000 * k) for k in range(4)]
        for f, data in zip(erm.train_erms(stack, lam), stack):
            assert np.array_equal(f.weights, reference_train_erm(data, lam))

    def test_weights_do_not_depend_on_stack_mates_or_order(self):
        stack = self._mixed()
        together = [f.weights for f in erm.train_erms(stack, self.LAM)]
        backwards = [f.weights for f in erm.train_erms(stack[::-1], self.LAM)][::-1]
        alone = [train_erm(data, self.LAM).weights for data in stack]
        paired = [erm.train_erms([data, stack[0]], self.LAM)[0].weights for data in stack]
        for weights in (backwards, alone, paired):
            for w, w_together in zip(weights, together):
                assert np.array_equal(w, w_together)

    def test_unconverged_problem_raises_and_is_named(self, monkeypatch):
        easy, hard = _symmetric_set(40, 3, seed=3), generate_synthetic(40, 3, 2.0, seed=1)
        monkeypatch.setattr(erm, "_MAX_ITER", 1)
        assert erm.train_erms([easy], self.LAM)[0].weights.tolist() == [0.0] * 3
        with pytest.raises(ConvergenceError, match=r"^problem 1 of 2: gradient norm .* after 1 iterations$"):
            erm.train_erms([easy, hard], self.LAM)
        with pytest.raises(ConvergenceError, match=r"^problem 0 of 3: "):
            erm.train_erms([hard, easy, easy], self.LAM)

    def test_mixed_shapes_and_empty_stack_raise(self):
        with pytest.raises(ValueError, match="one \\(n, d\\) shape"):
            erm.train_erms([generate_synthetic(40, 3, 2.0, 1), generate_synthetic(40, 4, 2.0, 1)], 0.1)
        with pytest.raises(ValueError, match="one \\(n, d\\) shape"):
            erm.train_erms([generate_synthetic(40, 3, 2.0, 1), generate_synthetic(41, 3, 2.0, 1)], 0.1)
        with pytest.raises(ValueError, match="at least one dataset"):
            erm.train_erms([], 0.1)

    def test_stack_of_one_is_a_view(self):
        data = generate_synthetic(1_000, 5, 4.0, seed=7)
        features, labels = erm._stack([data])
        assert np.shares_memory(features, data.features) and np.shares_memory(labels, data.labels)
        assert features.shape == (1, 5, 1_000) and features.flags.c_contiguous


class TestLogisticLoss:
    """The max(-m, 0) + log1p(exp(-|m|)) form against np.logaddexp(0, -m)."""

    @staticmethod
    def _check(margins):
        expected = np.logaddexp(0.0, -margins)
        value = erm._logistic_loss(margins)
        assert np.array_equal(np.isfinite(value), np.isfinite(expected))
        np.testing.assert_allclose(value, expected, rtol=1e-15, atol=0.0)

    def test_edge_margins(self):
        edges = np.array([0.0, 1.0, 745.0, 1e308, math.inf])
        self._check(np.concatenate([edges, -edges]))

    def test_random_margins(self):
        rng = np.random.Generator(np.random.PCG64(7))
        magnitude = 10.0 ** rng.uniform(-8.0, 3.0, 100_000)
        self._check(np.where(rng.random(100_000) < 0.5, magnitude, -magnitude))


class TestPerturbInputs:
    def test_zero_noise_identity(self):
        data = generate_synthetic(30, 3, 1.0, seed=7)
        pert, noise = perturb_inputs(data, 0.0, np.zeros(30), seed=8)
        assert np.array_equal(pert.features, data.features)
        assert np.all(noise == 0.0)

    def test_noise_variance(self):
        data = generate_synthetic(2000, 40, 0.0, seed=9)
        _, noise = perturb_inputs(data, 3.0, np.full(2000, 4.0), seed=10)
        assert noise.var() == pytest.approx(25.0, rel=0.02)

    def test_row_norms_chi_square_distributed(self):
        n, d = 10_000, 5
        data = generate_synthetic(n, d, 0.0, seed=11)
        _, noise = perturb_inputs(data, 1.0, np.full(n, 2.0), seed=12)
        scaled = np.sum(noise**2, axis=1) / 5.0
        _, p_value = stats.kstest(scaled, "chi2", args=(d,))
        assert p_value > 0.001

    def test_length_mismatch(self):
        data = generate_synthetic(10, 2, 1.0, seed=13)
        with pytest.raises(ValueError):
            perturb_inputs(data, 1.0, np.zeros(9), seed=0)


class TestClassifierGap:
    def test_zero_noise(self):
        data = generate_synthetic(100, 3, 2.0, seed=14)
        f1 = train_erm(data, lam=0.2)
        f2 = train_erm(data, lam=0.2)
        report = check_classifier_gap(f1, f2, np.zeros((100, 3)), 0.2)
        assert report.lhs <= 1e-12
        assert report.rhs == 0.0
        assert report.lhs <= report.rhs + 1e-9

    def test_holds_on_random_trials(self):
        for seed in range(20):
            data = generate_synthetic(200, 5, 4.0, seed=seed)
            f_clean = train_erm(data, lam=0.1)
            pert, noise = perturb_inputs(data, 0.2, np.full(200, 0.3), seed=seed + 1)
            f_pert = train_erm(pert, lam=0.1)
            report = check_classifier_gap(f_clean, f_pert, noise, 0.1)
            assert report.slack >= -1e-6

    def test_rhs_quadruples_with_doubled_noise(self):
        f = Classifier(np.ones(3))
        noise = np.full((10, 3), 0.5)
        r1 = check_classifier_gap(f, f, noise, 0.1)
        r2 = check_classifier_gap(f, f, 2 * noise, 0.1)
        assert r2.rhs == pytest.approx(4 * r1.rhs, rel=1e-12)


def plain_losses(margins):
    """The logistic loss written out, each step a fresh array."""
    return np.maximum(-margins, 0.0) + np.log1p(np.exp(-np.abs(margins)))


class TestInPlaceKernels:
    """The loss and the risk, the Monte Carlo estimate too, write into
    arrays of their own: their values are == the plain formulas, and no
    input moves."""

    @staticmethod
    def _problem(n, seed=3):
        rng = np.random.Generator(np.random.PCG64(seed + n))
        data = Dataset(2.0 * rng.standard_normal((n, 4)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
        return data, Classifier(3.0 * rng.standard_normal(4)), 0.3

    def test_loss_is_the_plain_formula(self):
        rng = np.random.Generator(np.random.PCG64(11))
        margins = 10.0 ** rng.uniform(-8.0, 3.0, 10_000) * np.where(rng.random(10_000) < 0.5, 1.0, -1.0)
        # where the sign of zero, exp's underflow and the infinities matter
        edges = np.array([0.0, 745.0, 1e308, math.inf])
        margins = np.concatenate([margins, edges, -edges])
        expected = plain_losses(margins)
        ez = np.exp(-np.abs(margins))
        given = ez.copy()
        for value in (erm._logistic_loss(margins.copy(), given), erm._logistic_loss(margins.copy())):
            assert np.array_equal(value, expected)
            assert np.array_equal(np.signbit(value), np.signbit(expected))
        assert np.array_equal(given, ez)

    @pytest.mark.parametrize("n", [1, 2, 3, 1_000, 100_000])
    def test_estimate_and_risk_are_the_plain_formulas(self, n):
        data, f, lam = self._problem(n)
        w = f.weights
        losses = plain_losses(data.labels * (data.features @ w))
        assert empirical_risk(f, data, lam) == float(np.mean(losses)) + 0.5 * lam * float(w @ w)

    @pytest.mark.parametrize("n", [2, 1_000])
    def test_inputs_are_left_alone(self, n):
        data, f, lam = self._problem(n)
        arrays = (data.features, data.labels, f.weights)
        copies = [a.copy() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # a write raises
        train_erm(data, lam)
        empirical_risk(f, data, lam)
        perturb_inputs(data, 0.2, np.full(n, 0.3), seed=4)
        for a, copy in zip(arrays, copies):
            assert np.array_equal(a, copy)


class TestDatasetRows:
    def test_no_rows_rejected(self):
        """A set without rows has no mean loss: it is refused when built,
        not left for the risk, the training or the gap check to divide by
        zero.  One row is enough (the plain-formula test at n = 1)."""
        for shape in ((0, 3), (0, 0)):
            with pytest.raises(ValueError, match="at least one row"):
                Dataset(np.zeros(shape), np.zeros(0))


class TestColumnMajorLayout:
    """Dataset keeps its features column-major whatever layout it is given,
    and the builders hand it arrays it need not copy."""

    def test_either_order_gives_equal_results(self):
        rng = np.random.Generator(np.random.PCG64(21))
        values = 2.0 * rng.standard_normal((1_000, 4))
        labels = np.where(rng.random(1_000) < 0.5, 1.0, -1.0)
        c_data = Dataset(np.ascontiguousarray(values), labels)
        f_data = Dataset(np.asfortranarray(values), labels)
        assert c_data.features.flags.f_contiguous and f_data.features.flags.f_contiguous
        f = Classifier(rng.standard_normal(4))
        assert np.array_equal(train_erm(c_data, 0.3).weights, train_erm(f_data, 0.3).weights)
        assert empirical_risk(f, c_data, 0.3) == empirical_risk(f, f_data, 0.3)

    def test_builders_are_not_copied_again(self, monkeypatch):
        given = []

        class Recording(Dataset):
            def __post_init__(self):
                given.append(self.features)
                super().__post_init__()

        monkeypatch.setattr(erm, "Dataset", Recording)
        data = generate_synthetic(10_000, 5, 4.0, seed=3)
        pert, _ = perturb_inputs(data, 0.2, np.full(10_000, 0.3), seed=4)
        assert len(given) == 2
        for dataset, features in zip((data, pert), given):
            assert dataset.features.flags.f_contiguous
            assert np.shares_memory(dataset.features, features)

    def test_blocked_draw_is_the_row_major_draw(self):
        n = 3 * erm._DRAW_ROWS + 5  # a partial last block
        rng = np.random.Generator(np.random.PCG64(6))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        features = rng.standard_normal((n, 3))
        features[:, 0] += labels * 1.5
        data = generate_synthetic(n, 3, 3.0, seed=6)
        assert np.array_equal(data.features, features)
        assert np.array_equal(data.labels, labels)


class TestEmpiricalRisk:
    def test_zero_classifier_is_log_two(self):
        data = generate_synthetic(50, 3, 1.0, seed=15)
        assert empirical_risk(Classifier(np.zeros(3)), data, 0.3) == pytest.approx(
            math.log(2), rel=1e-12
        )

    def test_trained_below_zero_classifier(self):
        data = generate_synthetic(100, 3, 2.0, seed=16)
        f = train_erm(data, lam=0.2)
        assert empirical_risk(f, data, 0.2) <= math.log(2)

    def test_matches_extended_precision_summation(self):
        data = generate_synthetic(300, 4, 2.0, seed=17)
        w = np.array([0.3, -0.2, 0.7, 0.1])
        value = empirical_risk(Classifier(w), data, 0.25)
        total = 0.0
        for x, y in zip(data.features, data.labels):
            m = y * float(np.dot(w, x))
            total += math.log1p(math.exp(-abs(m))) + max(-m, 0.0)
        expected = 0.5 * 0.25 * float(np.dot(w, w)) + total / 300
        assert value == pytest.approx(expected, rel=1e-12)


class TestEmpiricalGap:
    def test_identical_classifiers(self):
        data = generate_synthetic(50, 2, 1.0, seed=18)
        f = train_erm(data, lam=0.2)
        report = check_empirical_gap(f, f, data, 0.2)
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_lhs_nonnegative_at_minimizer(self):
        data = generate_synthetic(200, 5, 4.0, seed=19)
        f_clean = train_erm(data, lam=0.1)
        pert, _ = perturb_inputs(data, 0.3, np.full(200, 0.2), seed=20)
        f_pert = train_erm(pert, lam=0.1)
        report = check_empirical_gap(f_pert, f_clean, data, 0.1)
        assert report.lhs >= -1e-10
        assert report.lhs <= report.rhs + 1e-9

    def test_holds_on_random_trials(self):
        for seed in range(20):
            data = generate_synthetic(200, 5, 4.0, seed=100 + seed)
            f_clean = train_erm(data, lam=0.1)
            pert, _ = perturb_inputs(data, 0.1, np.full(200, 0.4), seed=200 + seed)
            f_pert = train_erm(pert, lam=0.1)
            assert check_empirical_gap(f_pert, f_clean, data, 0.1).slack >= -1e-6


def standard_error(f, sample):
    """The Monte Carlo standard error of the mean loss over a sample."""
    losses = plain_losses(sample.labels * (sample.features @ f.weights))
    return float(np.std(losses, ddof=1)) / math.sqrt(sample.n)


class TestExpectedLoss:
    """empirical_risk over a held-out sample as the Monte Carlo estimate of
    the population loss plus regularizer."""

    def test_zero_classifier_exact(self):
        f, sample = Classifier(np.zeros(3)), generate_synthetic(1000, 3, 2.0, seed=21)
        assert empirical_risk(f, sample, 0.1) == pytest.approx(math.log(2), rel=1e-12)
        assert standard_error(f, sample) == pytest.approx(0.0, abs=1e-15)

    def test_trained_at_least_population_optimum(self):
        big = generate_synthetic(50_000, 3, 3.0, seed=23)
        f_star = train_erm(big, lam=0.1, tol=1e-7)
        data = generate_synthetic(200, 3, 3.0, seed=24)
        f_d = train_erm(data, lam=0.1)
        sample = generate_synthetic(50_000, 3, 3.0, seed=25)
        j_d, j_star = empirical_risk(f_d, sample, 0.1), empirical_risk(f_star, sample, 0.1)
        assert j_d >= j_star - 2 * (standard_error(f_d, sample) + standard_error(f_star, sample))


def exact_population_loss(f, separation, lam, nodes=80):
    """Population loss plus regularizer under generate_synthetic: the margin
    y * w.x is N((separation / 2) * w_1, ||w||^2) for either label, so the
    loss is a 1-D Gaussian integral, here by Gauss-Hermite quadrature."""
    x, weights = np.polynomial.hermite_e.hermegauss(nodes)
    w = f.weights
    margins = separation / 2.0 * w[0] + math.sqrt(float(w @ w)) * x
    loss = float(weights @ np.logaddexp(0.0, -margins)) / math.sqrt(2.0 * math.pi)
    return loss + 0.5 * lam * float(w @ w)


class TestExactPopulationLoss:
    """The Monte Carlo estimate against the closed form, an oracle
    independent of empirical_risk's arithmetic."""

    def test_quadrature_converged(self):
        for seed in range(3):
            f = train_erm(generate_synthetic(200, 5, 4.0, seed=seed), lam=0.1)
            assert exact_population_loss(f, 4.0, 0.1) == pytest.approx(
                exact_population_loss(f, 4.0, 0.1, nodes=160), rel=1e-12
            )
        # the zero classifier's loss is log 2 at every margin
        assert exact_population_loss(Classifier(np.zeros(5)), 4.0, 0.1) == pytest.approx(math.log(2), rel=1e-14)

    def test_estimate_within_four_standard_errors(self):
        sample = generate_synthetic(50_000, 5, 4.0, seed=424_242)
        for seed in range(5):
            data = generate_synthetic(200, 5, 4.0, seed=seed)
            if seed % 2:  # a classifier trained on perturbed inputs, as the scaling suite's are
                data, _ = perturb_inputs(data, 0.5, np.full(200, 0.7), seed + 20_000)
            f = train_erm(data, lam=0.1)
            mean = empirical_risk(f, sample, 0.1)
            assert abs(mean - exact_population_loss(f, 4.0, 0.1)) <= 4 * standard_error(f, sample)
