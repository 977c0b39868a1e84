"""Property tests of every CLI command on generated configs: each run ends in exit 0-3, never a traceback.

A config is a small valid one with up to three faults: a key set to a value
of the wrong type, non-finite, out of range or malformed, a key removed, or
an unknown key added.  Grids stay at M <= 16 so that a valid run is quick.
"""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nearelliptic.cli import main

CERTIFICATE = {
    "nu": 1.0, "beta": 0.09, "gamma": 0.455, "lambda": 0.2725, "kappa": 0.045,
    "alpha": 1.0, "alpha_bounds": [1.0, 1.0], "lipschitz_M": 1.3,
}

# a value of any kind: wrong type, non-finite, out of range or malformed
ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 10**6, 2**70, "", "x", "identity", "fitted", "random"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 3), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "k", "path", "x"]), st.integers(-2, 3), max_size=2),
)

TENSORS = st.sampled_from([
    "identity", "example2", "example2:m=2", "example2:m=x", "example2:q=1", "bogus",
    {"path": "missing.txt"}, {"path": "."},
    {"n": 2, "N": 2, "entries": [1.0] * 16},
    {"n": 2, "N": 2, "entries": [1.0, 2.0]},
    {"n": 3, "N": 2, "entries": [0.0] * 36},
    {"n": "x", "N": 2, "entries": []},
])

PERTURBATIONS = st.one_of(
    st.none(),
    st.builds(lambda a: {"kind": "scaled_sine", "amplitude": a}, st.sampled_from([0.0, 0.1, 0.3, 0.32, 0.9, 2.0])),
    st.builds(lambda b, c: {"kind": "norm_combo", "b": b, "c": c}, st.sampled_from([0.0, 0.1, 0.2]), st.sampled_from([0.0, 0.1])),
)

MODES = st.lists(
    st.fixed_dictionaries(
        {"k": st.sampled_from([[1, 0], [0, 2], [1, 1, 0], [0, 0], [1, 2, 3]])},
        optional={"component": st.integers(0, 2), "amplitude": st.floats(-2, 2), "kind": st.sampled_from(["sin", "cos", "tan"])},
    ),
    min_size=1,
    max_size=2,
)

VALID = st.fixed_dictionaries(
    {
        "grid": st.fixed_dictionaries({"n": st.sampled_from([2, 3]), "M": st.sampled_from([4, 8, 16])}),
        "tensor": st.sampled_from(["identity", "example2"]),
        "spec": st.fixed_dictionaries({"perturbation": PERTURBATIONS, "weight": st.sampled_from([1.0, 2.0])}),
        "spec_g": st.fixed_dictionaries({"perturbation": PERTURBATIONS}),
        "rhs": st.one_of(
            st.fixed_dictionaries({"kind": st.just("random"), "band": st.integers(1, 4), "seed": st.integers(0, 3)}),
            st.fixed_dictionaries({"kind": st.just("modes"), "modes": MODES}),
            st.fixed_dictionaries({"kind": st.just("analytic"), "analytic_scale": st.sampled_from([0.5, 3.0])}),
        ),
        "solver": st.fixed_dictionaries({"mode": st.sampled_from(["campanato", "linear"]), "max_iters": st.integers(1, 60)}),
    },
    optional={
        "alpha": st.sampled_from([None, 1.0, 0.5, "matching"]),
        "certificate": st.one_of(st.sampled_from(["analytic", "fitted"]), st.builds(dict, st.just(CERTIFICATE))),
        "seed": st.integers(0, 3),
    },
)

# where a fault goes, and the values to put there besides ANY
PATHS = {
    ("grid",): st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.text(max_size=3), st.lists(st.integers(-2, 3))),
    ("grid", "n"): st.sampled_from([-1, 0, 1, 4, 10**6, 2.0]),
    ("grid", "N"): st.sampled_from([-1, 0, 1, 3, 10**12, 2.5]),
    ("grid", "M"): st.sampled_from([-4, 0, 2, 5, 6, 12, 10**6, 16.0]),
    ("grid", "L"): st.sampled_from([0.5, 2.0, -1.0, 1e-300, 1e300]),
    ("tensor",): TENSORS,
    ("spec",): ANY,
    ("spec", "weight"): st.sampled_from([0.5, -1.0, 0.0, 1e300, "missing.field", "."]),
    ("spec", "perturbation"): st.one_of(PERTURBATIONS, st.fixed_dictionaries({"kind": ANY}, optional={"amplitude": ANY, "b": ANY, "c": ANY})),
    ("spec_g",): ANY,
    ("spec_g", "perturbation"): st.one_of(PERTURBATIONS, st.fixed_dictionaries({"kind": ANY}, optional={"amplitude": ANY})),
    ("alpha",): st.sampled_from([0.0, -1.0, 1e300, "matching"]),
    ("rhs",): ANY,
    ("rhs", "kind"): st.sampled_from(["random", "modes", "analytic", "file", "bogus"]),
    ("rhs", "band"): st.sampled_from([0, 3, 5, 8, 2**70]),
    ("rhs", "seed"): st.sampled_from([-1, 2**70]),
    ("rhs", "modes"): st.one_of(MODES, ANY),
    ("rhs", "path"): st.sampled_from(["missing.field", ".", ""]),
    ("rhs", "analytic_scale"): st.sampled_from([-3.0, 0.0, 50.0, 1e300]),
    ("solver",): ANY,
    ("solver", "mode"): st.sampled_from(["campanato", "linear", "bogus"]),
    ("solver", "tol_residual"): st.sampled_from([-1.0, 0.0, 1e-300, 1e300]),
    ("solver", "max_iters"): st.sampled_from([0, -1, 2**70]),
    ("solver", "epsilon"): st.sampled_from([-1.0, 0.0, 1e-3, 1e300]),
    ("certificate",): st.one_of(st.sampled_from(["analytic", "fitted", "declared"]), ANY),
    ("certificate", "beta"): st.sampled_from([0.5, 0.0, -0.1, 1.0]),
    ("certificate", "gamma"): st.sampled_from([0.49, 0.45, 0.0, 2.0]),
    ("certificate", "nu"): st.sampled_from([0.0, -1.0, 1e-300, 1e300]),
    ("certificate", "alpha"): st.sampled_from([None, 0.0, -1.0, 0.5]),
    ("certificate", "alpha_bounds"): st.sampled_from([[0.0, 1.0], [-2, 1], [1e300, 1e300], [1.0], [2.0, 0.5]]),
    ("seed",): st.sampled_from([-1, 2**70]),
    ("extra",): ANY,
    ("grid", "extra"): ANY,
}

# the grid's size takes only its own values and is never removed: its default M is 64
GRID_SIZE = {("grid",), ("grid", "n"), ("grid", "M")}


def fault(path):
    """A (path, remove, value) fault at ``path``."""
    if path in GRID_SIZE:
        return st.tuples(st.just(path), st.just(False), PATHS[path])
    return st.tuples(st.just(path), st.booleans(), st.one_of(PATHS[path], ANY))


FAULTS = st.lists(st.sampled_from(sorted(PATHS)).flatmap(fault), max_size=3)


def faulty(config: dict, faults) -> dict:
    """``config`` with each (path, remove, value) fault applied; a fault below a non-mapping is dropped."""
    for path, remove, value in faults:
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            if remove:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
    return config


OPTIONS = {
    "certify": st.lists(st.sampled_from([["--seed", "1"], ["--seed", "-1"], ["--seed", str(2**70)]]), max_size=1),
    "solve-linear": st.lists(
        st.sampled_from([["--epsilon", "1e-3"], ["--epsilon", "nan"], ["--epsilon", "-1"], ["--grid-m", "8"], ["--grid-m", "3"], ["--seed", "-2"]]),
        max_size=2,
    ),
    "solve": st.lists(
        st.sampled_from([["--tol", "1e-6"], ["--tol", "inf"], ["--tol", "-1"], ["--grid-m", "8"], ["--grid-m", "-4"], ["--seed", "2"]]),
        max_size=2,
    ),
    "solve-stability": st.lists(st.sampled_from([["--seed", "4"], ["--seed", "-1"]]), max_size=1),
    "study": st.sampled_from([["--m-list", "8,16"], ["--m-list", "4"], ["--m-list", "16,8"], ["--m-list", "2,4"], ["--m-list", "8,x"]]).map(lambda o: [o]),
}


def check_run(command: str, args: list[str]) -> None:
    result = CliRunner().invoke(main, [command] + args)
    # CliRunner catches what escapes; only a SystemExit (or nothing) is a handled end
    assert result.exception is None or isinstance(result.exception, SystemExit), (result.exception, result.output)
    assert result.exit_code in (0, 1, 2, 3), result.output
    if result.exit_code == 1:
        assert f"FAIL [{command}]" in result.output or "check(s) failed" in result.output, result.output
    if result.exit_code == 3:
        assert f"REFUSED [{command}]" in result.output, result.output


def run_config(command: str, config: dict, options: list[list[str]]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        args = ["--config", str(path), "--out-dir", str(Path(tmp) / "out")]
        check_run(command, args + [word for option in options for word in option])


FUZZ = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestEveryCommandEndsInAnExitCode:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    @FUZZ
    @given(config=VALID, faults=FAULTS, data=st.data())
    def test_a_faulty_config(self, command, config, faults, data):
        run_config(command, faulty(config, faults), data.draw(OPTIONS[command]))

    @settings(max_examples=4, deadline=None)
    @given(seed=st.sampled_from([-1, 0, 7, 2**70]), report=st.booleans())
    def test_example_suite(self, seed, report):
        with tempfile.TemporaryDirectory() as tmp:
            check_run("example-suite", ["--seed", str(seed)] + (["--out-dir", tmp] if report else []))
