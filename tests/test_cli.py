"""The command-line interface, driven through main(argv)."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphcode import (Budget, apply_permutation, code, complete_graph, cycle_graph,
                       empty_graph, independence_number, minimum_total_coverings,
                       path_graph, render_edge_list, theta_t)
from graphcode import cli
from graphcode.cli import BUDGET_ENV_VAR, build_parser, main

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "example1.edges")
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_ambient_budget(monkeypatch):
    """A GRAPHCODE_BUDGET set in the caller's shell must not change the verdicts."""
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_graph(tmp_path: Path, name: str, g) -> str:
    path = tmp_path / name
    path.write_text(render_edge_list(g))
    return str(path)


def test_code_human(capsys):
    status, out, _ = run_cli(capsys, "code", EXAMPLE)
    assert status == 0
    assert out.strip() == "(2,2,3,3,5,7,10,10,10,11,231)"


def test_code_json(capsys):
    status, out, _ = run_cli(capsys, "code", "--json", EXAMPLE)
    assert status == 0
    assert json.loads(out) == {"code": [2, 2, 3, 3, 5, 7, 10, 10, 10, 11, 231]}


def test_poly(capsys):
    status, out, _ = run_cli(capsys, "poly", EXAMPLE)
    assert status == 0
    assert out.strip() == "2*x1 + 2*x2 + x3 + x4 + x5 + 3*x1*x3 + x2*x4*x5"


def test_theta(capsys):
    status, out, _ = run_cli(capsys, "theta", EXAMPLE)
    assert status == 0
    assert "theta_t: 5" in out
    assert "minimum coverings: 1" in out


def test_covers(capsys, tmp_path, witness_graph):
    path = write_graph(tmp_path, "w.edges", witness_graph)
    status, out, _ = run_cli(capsys, "covers", "--json", path)
    assert status == 0
    data = json.loads(out)
    assert data["theta_t"] == 3
    assert len(data["coverings"]) == 2
    as_sets = {frozenset(frozenset(c) for c in cov) for cov in data["coverings"]}
    assert frozenset({frozenset({0, 1}), frozenset({0, 2, 3}), frozenset({1, 2, 4})}) in as_sets


def test_iso_positive_with_oracle(capsys, tmp_path):
    g = path_graph(4)
    h = apply_permutation(g, (3, 1, 0, 2))
    p1 = write_graph(tmp_path, "a.edges", g)
    p2 = write_graph(tmp_path, "b.edges", h)
    status, out, _ = run_cli(capsys, "iso", "--oracle", p1, p2)
    assert status == 0
    assert "isomorphic: true" in out
    assert "agrees" in out


def test_iso_negative(capsys, tmp_path):
    p1 = write_graph(tmp_path, "a.edges", path_graph(4))
    p2 = write_graph(tmp_path, "b.edges", cycle_graph(4))
    status, out, _ = run_cli(capsys, "iso", "--json", p1, p2)
    assert status == 0
    data = json.loads(out)
    assert data["isomorphic"] is False
    assert data["code1"] == [2, 3, 10, 15]
    assert data["code2"] == [6, 10, 21, 35]


def test_iso_different_sizes(capsys, tmp_path):
    p1 = write_graph(tmp_path, "a.edges", path_graph(3))
    p2 = write_graph(tmp_path, "b.edges", path_graph(4))
    status, out, _ = run_cli(capsys, "iso", p1, p2)
    assert status == 0
    assert "isomorphic: false" in out
    assert "different vertex count" in out


def test_divisor_pipeline_cross_checks(capsys):
    status, out, _ = run_cli(capsys, "divisor", "60")
    assert status == 0
    assert "theta_t: 3" in out
    assert "F: 2*x1 + x2 + x3 + 2*x1*x2 + 2*x1*x3 + x2*x3 + 2*x1*x2*x3" in out
    assert "closed-form cross-check: ok" in out


def test_divisor_closed_form(capsys):
    status, out, _ = run_cli(capsys, "divisor", "60", "--closed-form")
    assert status == 0
    assert "F (closed form): 2*x1 + x2 + x3 + 2*x1*x2 + 2*x1*x3 + x2*x3 + 2*x1*x2*x3" in out


def test_divisor_json(capsys):
    status, out, _ = run_cli(capsys, "divisor", "--json", "12")
    assert status == 0
    data = json.loads(out)
    assert data["labels"] == [2, 3, 4, 6, 12]
    assert data["theta_t"] == 2
    assert data["closed_form_agrees"] is True


def test_realize_single_vertex(capsys):
    status, out, _ = run_cli(capsys, "realize", "--sequence", "1")
    assert status == 0
    assert out.strip() == "1 0"


def test_realize_path(capsys):
    status, out, _ = run_cli(capsys, "realize", "--json", "--sequence", "2,3,10,15")
    assert status == 0
    data = json.loads(out)
    assert data["vertices"] == 4
    assert sorted(map(tuple, data["edges"])) == [(0, 2), (1, 3), (2, 3)]


def test_gen_with_closed_form(capsys):
    status, out, _ = run_cli(capsys, "gen", "--family", "cycle", "--n", "5", "--closed-form")
    assert status == 0
    assert "code: (6,10,21,55,77)" in out
    assert "F: x1*x2 + x1*x3 + x2*x4 + x3*x5 + x4*x5" in out


@pytest.mark.parametrize("argv", [
    # 2,000 entries: about 2 * 10^6 gcd pairs to test
    ("realize", "--budget", "1000", "--sequence", ",".join(["6"] * 2000)),
    # 3,000 vertices and about 4.5 * 10^6 edges to build and print
    ("gen", "--family", "complete", "--n", "3000", "--budget", "10"),
])
def test_realize_and_gen_honour_the_budget(capsys, argv):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert status == 2
    assert "node budget" in err
    assert not out


def test_verify_passes(capsys):
    status, out, _ = run_cli(capsys, "verify", EXAMPLE)
    assert status == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


VERIFY_EXAMPLE_TEXT = """\
ok   minimum coverings are valid and sized theta_t  [theta_t=5, coverings=1]
ok   singletons in minimum coverings are the isolated vertices
ok   every clique in a minimum covering is essential
ok   theta_t = primes(lambda(code)) + isolated count  [code=(2, 2, 3, 3, 5, 7, 10, 10, 10, 11, 231)]
ok   covering -> sequence -> covering round trip
ok   realizing the code reproduces the graph  [skipped: beyond oracle size]
ok   polynomial mass and constant term  [F=2*x1 + 2*x2 + x3 + x4 + x5 + 3*x1*x3 + x2*x4*x5]
ok   disconnection is readable off the polynomials
ok   bipartiteness is readable off the polynomials
all checks passed
"""


def test_verify_golden_text(capsys):
    status, out, _ = run_cli(capsys, "verify", EXAMPLE)
    assert status == 0
    assert out == VERIFY_EXAMPLE_TEXT


VERIFY_EXAMPLE_JSON = (
    '{"all_passed": true, "checks": ['
    '{"detail": "theta_t=5, coverings=1", '
    '"name": "minimum coverings are valid and sized theta_t", "passed": true}, '
    '{"detail": "", '
    '"name": "singletons in minimum coverings are the isolated vertices", "passed": true}, '
    '{"detail": "", '
    '"name": "every clique in a minimum covering is essential", "passed": true}, '
    '{"detail": "code=(2, 2, 3, 3, 5, 7, 10, 10, 10, 11, 231)", '
    '"name": "theta_t = primes(lambda(code)) + isolated count", "passed": true}, '
    '{"detail": "", '
    '"name": "covering -> sequence -> covering round trip", "passed": true}, '
    '{"detail": "skipped: beyond oracle size", '
    '"name": "realizing the code reproduces the graph", "passed": true}, '
    '{"detail": "F=2*x1 + 2*x2 + x3 + x4 + x5 + 3*x1*x3 + x2*x4*x5", '
    '"name": "polynomial mass and constant term", "passed": true}, '
    '{"detail": "", '
    '"name": "disconnection is readable off the polynomials", "passed": true}, '
    '{"detail": "", '
    '"name": "bipartiteness is readable off the polynomials", "passed": true}]}\n')


def test_verify_golden_json(capsys):
    status, out, _ = run_cli(capsys, "verify", "--json", EXAMPLE)
    assert status == 0
    assert out == VERIFY_EXAMPLE_JSON


@pytest.mark.parametrize("argv, run", [
    (["code", "g"], cli._cmd_code),
    (["poly", "g"], cli._cmd_poly),
    (["theta", "g"], cli._cmd_theta),
    (["covers", "g"], cli._cmd_covers),
    (["iso", "g1", "g2"], cli._cmd_iso),
    (["divisor", "12"], cli._cmd_divisor),
    (["realize", "--sequence", "2,3,6"], cli._cmd_realize),
    (["gen", "--family", "path", "--n", "3"], cli._cmd_gen),
    (["verify", "g"], cli._cmd_verify),
])
def test_every_subcommand_takes_the_shared_options(argv, run):
    args = build_parser().parse_args([*argv, "--json", "--budget", "7", "--format", "graph6"])
    assert (args.json, args.budget, args.format, args.run) == (True, 7, "graph6", run)


def test_budget_outcome_does_not_depend_on_earlier_calls(capsys):
    # Factoring 200000014 completes within 5,000 units; the rest of the
    # command does not, and must not get the factorization for free later.
    for _ in range(2):
        status, _, err = run_cli(capsys, "divisor", "200000014", "--budget", "5000")
        assert status == 2
        assert "node budget" in err


def test_budget_flag_exceeded(capsys):
    status, _, err = run_cli(capsys, "code", "--budget", "10", EXAMPLE)
    assert status == 2
    assert "error" in err


def test_deep_searches_finish_under_a_low_recursion_limit(capsys, tmp_path):
    # Every search keeps its open nodes on a stack of its own, so inputs
    # hundreds of levels deep finish under a recursion limit only 100
    # above the current depth.  Each of these calls used to recurse once
    # per level of its search.
    k150 = write_graph(tmp_path, "k150.edges", complete_graph(150))
    path = write_graph(tmp_path, "p300.edges", path_graph(300))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        tracker = Budget()
        assert len(code(path_graph(300), tracker)) == 300
        assert tracker.used == 405_746
        assert theta_t(complete_graph(300)) == 1
        assert len(minimum_total_coverings(complete_graph(300))) == 1
        assert independence_number(empty_graph(300)) == 300
        theta = run_cli(capsys, "theta", k150)
        coded = run_cli(capsys, "code", path)
        verified = run_cli(capsys, "verify", path)
    finally:
        sys.setrecursionlimit(limit)
    assert theta[0] == 0 and theta[1].startswith("theta_t: 1\n") and theta[2] == ""
    assert coded[0] == 0 and coded[2] == ""
    assert verified[0] == 0 and verified[1].endswith("all checks passed\n")


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    status, _, err = run_cli(capsys, "code", EXAMPLE)
    assert status == 2
    # the explicit flag wins over the environment
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    status, out, _ = run_cli(capsys, "code", "--budget", "10000000", EXAMPLE)
    assert status == 0


def test_budget_env_var_malformed(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "plenty")
    status, _, err = run_cli(capsys, "code", EXAMPLE)
    assert status == 1
    assert BUDGET_ENV_VAR in err


def test_missing_file(capsys):
    status, _, err = run_cli(capsys, "code", "no-such-file.edges")
    assert status == 1
    assert "error" in err


def test_oversized_header_exits_1(capsys, tmp_path):
    path = tmp_path / "huge.edges"
    path.write_text("1000000000 0\n")
    status, _, err = run_cli(capsys, "code", str(path))
    assert status == 1
    assert "limited" in err


def test_format_override(capsys):
    status, out, _ = run_cli(capsys, "code", "--format", "dimacs", str(DATA / "example1.dimacs"))
    assert status == 0
    assert out.strip() == "(2,2,3,3,5,7,10,10,10,11,231)"


def test_format_mismatch_fails(capsys):
    status, _, err = run_cli(capsys, "code", "--format", "graph6", EXAMPLE)
    assert status == 1


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "covers", "--json", EXAMPLE)
    _, second, _ = run_cli(capsys, "covers", "--json", EXAMPLE)
    assert first == second


def checkout_env() -> dict[str, str]:
    """The current environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def console_scripts() -> dict[str, str]:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def run_console_script(entry: str, *argv: str,
                       timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run `entry` ("module:function") as the launcher pip installs would.

    With a timeout, a run that hangs fails the test instead of the suite.
    """
    module, attr = entry.split(":")
    wrapper = (f"import sys\nfrom {module} import {attr}\n"
               f"sys.argv[0] = 'graphcode'\nsys.exit({attr}())")
    return subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=timeout)


def test_installed_entry_point():
    """Runs the module with `python -m graphcode.cli`, not an installed script."""
    result = subprocess.run([sys.executable, "-m", "graphcode.cli", "code", EXAMPLE],
                            capture_output=True, text=True, env=checkout_env())
    assert result.returncode == 0
    assert result.stdout.strip() == "(2,2,3,3,5,7,10,10,10,11,231)"


def test_console_script(tmp_path):
    scripts = console_scripts()
    assert scripts == {"graphcode": "graphcode.cli:main"}
    entry = scripts["graphcode"]

    result = run_console_script(entry, "theta", EXAMPLE)
    assert result.returncode == 0
    assert "theta_t: 5" in result.stdout

    # the exit status reaches the caller: 1 bad input, 2 budget exceeded
    result = run_console_script(entry, "theta", str(tmp_path / "missing.edges"))
    assert result.returncode == 1
    assert "error" in result.stderr
    result = run_console_script(entry, "theta", "--budget", "1", EXAMPLE)
    assert result.returncode == 2
    assert "error" in result.stderr


def test_gen_writes_its_edge_list_without_holding_it(tmp_path):
    # K_1000 has 499,500 edges.  Holding each as a tuple, a JSON list and a
    # text line took about 160 MB of max RSS; written line by line, the
    # text needs no copy of the edge list.
    measured = ("import resource, sys\nfrom graphcode.cli import main\n"
                "status = main(sys.argv[1:])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
                "sys.exit(status)")
    out = tmp_path / "k1000.edges"
    with out.open("w") as f:
        result = subprocess.run([sys.executable, "-c", measured, "gen", "--family", "complete",
                                 "--n", "1000"], stdout=f, stderr=subprocess.PIPE, text=True,
                                env=checkout_env(), timeout=60)
    assert result.returncode == 0
    # ru_maxrss is in KB on Linux and in bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    assert int(result.stderr) * scale < 64 * 2 ** 20
    with out.open() as f:
        assert next(f) == "1000 499500\n" and next(f) == "0 1\n"
        assert sum(1 for _ in f) == 499_499


@pytest.mark.parametrize("argv", [
    # two prime factors near 10^9: factoring trial-divides up to 10^9
    ("divisor", "1000000016000000063", "--budget", "100000"),
    ("divisor", "1000000016000000063", "--budget", "100000", "--closed-form"),
    # 6,720 divisors: about 2.3 * 10^7 divisor pairs to test
    ("divisor", "963761198400"),
    # 2,646 maximal cliques holding 3.1 * 10^7 (clique, edge) pairs to index
    ("divisor", "720720"),
])
def test_hard_divisor_inputs_exhaust_the_budget_quickly(argv):
    result = run_console_script("graphcode.cli:main", *argv, timeout=30)
    assert result.returncode == 2
    assert "node budget" in result.stderr
