import numpy as np

from spinsyn.env import InputSchedule, reward

PATTERNS = [(0, 0), (0, 1), (1, 0), (1, 1)]  # the XOR truth table's inputs


class TestSampleInput:
    def test_invariant_holds_for_every_draw(self):
        rng = np.random.default_rng(0)
        x, target = InputSchedule().next(rng.random((1000, 1, 2)))
        for t in range(1000):
            assert target[t, 0] == int(x[t, 0, 0]) ^ int(x[t, 0, 1])

    def test_uniformity_monte_carlo(self):
        rng = np.random.default_rng(1)
        n = 100_000
        x, _ = InputSchedule().next(rng.random((1, n, 2)))
        counts = {p: 0 for p in PATTERNS}
        for row in x[0].astype(int):
            counts[tuple(row)] += 1
        se = np.sqrt(0.25 * 0.75 / n)
        for c in counts.values():
            assert abs(c / n - 0.25) < 3.5 * se


class TestReward:
    def test_match_and_mismatch(self):
        assert reward(1, 1) == 1
        assert reward(0, 0) == 1
        assert reward(0, 1) == 0
        assert reward(1, 0) == 0

    def test_symmetry(self):
        for y in (0, 1):
            for t in (0, 1):
                assert reward(y, t) == reward(t, y)

    def test_elementwise_over_lanes(self):
        y = np.array([1.0, 0.0, 0.0, 1.0])
        target = np.array([True, False, True, False])
        assert np.array_equal(reward(y, target), [1.0, 1.0, 0.0, 0.0])


class TestInputSchedule:
    def test_uniform_draws_from_rng(self):
        rng = np.random.default_rng(3)
        schedule = InputSchedule()
        u = rng.random((10, 10, 2))
        x, target = schedule.next(u)
        assert np.array_equal(x, (u < 0.5).astype(float))
        assert {tuple(row) for row in x.reshape(-1, 2).astype(int)} == set(PATTERNS)
        assert np.array_equal(target, x[..., 0] != x[..., 1])

    def test_presentation_major_outputs(self):
        # from the input columns of (batch, lanes, ...) uniforms, contiguous
        # or, as run_epoch passes them, an epoch of a lane-major (lanes,
        # epochs, batch, ...) draw transposed, each presentation's inputs and
        # targets are one contiguous row of all lanes
        draw = np.random.default_rng(5).random((3, 2, 4, 24))
        for u in (np.ascontiguousarray(draw[:, 0].transpose(1, 0, 2)),
                  draw[:, 0].transpose(1, 0, 2)):
            x, target = InputSchedule().next(u[..., :2])
            assert x.shape == (4, 3, 2) and target.shape == (4, 3)
            assert x[2].flags.c_contiguous and target[2].flags.c_contiguous


def test_single_threshold_unit_cannot_solve_xor():
    # algebraic core: (0,1) and (1,0) correct forces w1+b>0 and w2+b>0 with
    # b<=0, hence w1+w2+b > -b >= 0, contradicting (1,1) -> 0.
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        w1, w2, b = rng.uniform(-50, 50, size=3)
        outputs = [int(w1 * x0 + w2 * x1 + b > 0) for x0, x1 in PATTERNS]
        assert outputs != [0, 1, 1, 0]
