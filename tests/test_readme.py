"""README's library quick start runs, and its values are the ones it states."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

# each commented expression of the quick start -> a check of the value it states
STATED = {
    "cert.inverse": lambda v: np.allclose(v, np.diag([1.0, 0.5, 0.0]), rtol=0, atol=1e-15),
    "cert.residuals": lambda v: bool(v) and all(0.0 <= r <= 1e-10 for r in v.values()),
    "report.formula_inverse": lambda v: np.allclose(v, np.diag([1 / 1.1, 0.5, 0.0])),
    "gi.outer_prescribed(a, t, s).inverse": lambda v: np.allclose(v, np.diag([1.0, 0.5, 0.0])),
    "gi.column_space(np.diag([1.0, 0.3, 0.0]), loose).dim": lambda v: v == 1,
}


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_states_true_values():
    code = quick_start()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    commented = {line.split("#")[0].strip() for line in code.splitlines() if "#" in line}
    expressions = commented - {line for line in commented if "=" in line.split("(")[0]}
    assert expressions == set(STATED)
    for expression, holds in STATED.items():
        assert holds(eval(expression, namespace)), expression
    report = namespace["report"]
    assert np.allclose(report.formula_inverse, report.direct_inverse, rtol=0, atol=1e-14)
