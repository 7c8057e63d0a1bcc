"""The per-worker kernel cache of ``stages/taskpool.py`` stays bounded."""

import pyarrow as pa
import pyarrow.compute as pc


class _Scale:
    def __init__(self, factor: int) -> None:
        self.factor = factor

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({"x": pc.multiply(batch.column("x"), self.factor)})


def test_kernel_cache_bounded_per_class():
    from search_engine_skillbox_ray.stages import taskpool as tp

    def kernel(factor):
        kw = (("factor", factor),)
        return tp._cached_kernel((_Scale.__module__, _Scale.__qualname__, kw), _Scale, kw)

    def n_cached():
        return sum(1 for k in tp._KERNEL_CACHE if k[1] == _Scale.__qualname__)

    batch = pa.table({"x": [1, 2, 3]})
    first = kernel(2)
    assert kernel(2) is first  # a hit reuses the instance
    for f in range(3, 3 + 2 * tp._MAX_PER_CLASS):
        assert kernel(f)(batch).column("x").to_pylist() == [f, 2 * f, 3 * f]
        assert n_cached() <= tp._MAX_PER_CLASS
    assert n_cached() == tp._MAX_PER_CLASS
    # the evicted parameterization is rebuilt, with the right output
    again = kernel(2)
    assert again is not first
    assert again(batch).column("x").to_pylist() == [2, 4, 6]
    assert n_cached() == tp._MAX_PER_CLASS
