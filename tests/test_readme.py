"""The README's library quick start runs and gives the values its comments
state."""

import os
import re

from localsmith import Mat, MatSeries

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start() -> str:
    """The first python block under the "Library quick start" heading."""
    with open(README, "r", encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_values():
    code = quick_start()
    namespace = {}
    exec(code, namespace)
    result, inverse, chains = namespace["result"], namespace["inverse"], namespace["chains"]
    # The comments of the block state these values.
    for line in (
        "result.k                      # 3:",
        "result.smith_exponents()      # (0, 1, 3)",
        "result.delta_series()         # [[1,0,0],[0,0,eps],[0,-eps^3,0]]",
        "result.stages[-1].n.dim       # 0: the tail kernel",
        "inverse.pole                  # 3",
        "chains = result.state.jordan_chains(3)   # 9 x 1:",
    ):
        assert line in code
    assert result.k == 3
    assert result.smith_exponents() == (0, 1, 3)
    z = [0, 0, 0]
    expected = MatSeries.polynomial(
        [
            Mat([[1, 0, 0], z, z]),
            Mat([z, [0, 0, 1], z]),
            Mat([z, z, z]),
            Mat([z, z, [0, -1, 0]]),
        ]
    )
    assert result.delta_series() == expected
    assert result.stages[-1].n.dim == 0
    assert inverse.pole == 3
    assert not inverse.coefficient(-3).is_zero()
    assert (chains.rows, chains.cols) == (9, 1)
