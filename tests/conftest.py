import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = sys.modules.get("test_acceptance") and \
        getattr(sys.modules["test_acceptance"], "REPORT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


class ListSource:
    """A fixed instance list as a training source: ``instance(i)`` is entry
    ``i`` modulo the list's length."""

    def __init__(self, instances):
        from lrpca import InvalidInput
        self._data = list(instances)
        if not self._data:
            raise InvalidInput("instance list must be nonempty")

    def instance(self, i):
        return self._data[i % len(self._data)]


def run_concurrently(calls, timeout=120.0):
    """The results of the zero-argument ``calls``, each run on a thread of
    its own; all start together, with a short switch interval so that their
    Python code interleaves finely."""
    results = [None] * len(calls)
    start = threading.Barrier(len(calls))

    def worker(i):
        start.wait()
        results[i] = calls[i]()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a thread did not finish"
    return results


# --- expensive trained schedules shared by the acceptance criteria ---------

def _train(n, r, alpha, seed, steps, grid=(0.1, 1.0, 0.1), grid_instances=20,
           K=10, K_bar=15):
    from lrpca import InstanceSource, TrainConfig, train_schedule
    cfg = TrainConfig(K=K, K_bar=K_bar, sgd_steps_per_stage=steps,
                      grid=grid)
    t0 = time.perf_counter()
    theta = train_schedule(InstanceSource(n, n, r, alpha, base_seed=seed),
                           cfg, grid_instances=grid_instances)
    return theta, time.perf_counter() - t0


@pytest.fixture(scope="session")
def trained_base():
    """Canonical schedule: n=500, r=5, alpha=0.1, K=10, K_bar=15."""
    theta, wall = _train(500, 5, 0.1, seed=0, steps=15)
    return {"theta": theta, "wall_s": wall, "n": 500, "r": 5, "alpha": 0.1}


@pytest.fixture(scope="session")
def trained_high_alpha():
    """Schedule trained on the heavy-outlier family (alpha=0.45)."""
    theta, wall = _train(500, 5, 0.45, seed=100, steps=15)
    return {"theta": theta, "wall_s": wall}


@pytest.fixture(scope="session")
def trained_target_large_n():
    """Budget-limited target training at (n=1500, r=5)."""
    theta, wall = _train(1500, 5, 0.1, seed=7000, steps=8,
                         grid=(0.2, 1.0, 0.2), grid_instances=10)
    return {"theta": theta, "wall_s": wall}


@pytest.fixture(scope="session")
def trained_target_high_rank():
    """Budget-limited target training at (n=500, r=15)."""
    theta, wall = _train(500, 15, 0.1, seed=8000, steps=12,
                         grid=(0.2, 1.0, 0.2), grid_instances=10)
    return {"theta": theta, "wall_s": wall}


def make_scene_instance(phase, amplitude, n_frames=30, height=20, width=26,
                        seed=0):
    """Blob scene as a ground-truth training instance (Y = X + S exactly)."""
    from lrpca import ProblemInstance, frames_to_matrix, moving_blob_scene
    seq, masks = moving_blob_scene(height=height, width=width,
                                   n_frames=n_frames, amplitude=amplitude,
                                   phase=phase)
    yy, xx = np.mgrid[0:height, 0:width]
    base = 0.2 + 0.4 * (xx / (width - 1)) * (yy / (height - 1))
    Y = frames_to_matrix(seq)
    X = np.tile(base.reshape(-1, 1), (1, n_frames))
    return ProblemInstance(Y=Y, X_star=X, S_star=Y - X, r=2, alpha=0.0,
                           seed=seed), seq, masks


@pytest.fixture(scope="session")
def trained_video_schedule():
    """Video-style schedule (K=5, K_bar=10) trained on blob scenes."""
    from lrpca import TrainConfig, grid_search_tail, layerwise_train

    instances = [make_scene_instance(phase=(p, q), amplitude=a, seed=i)[0]
                 for i, (p, q, a) in enumerate(
                     [(3, 2, 0.85), (5, 7, 0.8), (1, 4, 0.9), (7, 1, 0.75),
                      (2, 9, 0.85), (6, 5, 0.8), (4, 3, 0.9), (0, 6, 0.82)])]
    source = ListSource(instances)
    cfg = TrainConfig(K=5, K_bar=10, sgd_steps_per_stage=8)
    t0 = time.perf_counter()
    theta = layerwise_train(source, cfg)
    theta = grid_search_tail(theta, instances, cfg)
    return {"theta": theta, "wall_s": time.perf_counter() - t0}
