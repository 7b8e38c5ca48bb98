"""tools/differential.py, run with this checkout's src/ on both sides."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import graphcode

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


@pytest.fixture
def copy():
    """This checkout's graphcode loaded again as graphcode_copy, unregistered afterwards."""
    path = sys.path[:]
    yield tool.load(ROOT / "src", "graphcode_copy")
    assert sys.path == path
    for name in [name for name in sys.modules if name.partition(".")[0] == "graphcode_copy"]:
        del sys.modules[name]


def test_differential_finds_no_change_between_equal_trees(copy):
    assert copy.code is not graphcode.code
    graphs, budget = tool.graphs_of("atlas", graphcode)
    sample = graphs[::100]
    for function in tool.FUNCTIONS:
        report = tool.compare(copy, graphcode, function, sample, budget)
        assert report["decided"] == [len(sample), len(sample)]
        assert report["units"][0] == report["units"][1] > 0
        assert not any(report[key] for key in ("mismatches", "lost", "gained", "rose", "fell"))
        assert min(report["seconds"]) > 0
        [line] = tool.render(f"atlas {function}", report)
        head = (f"atlas {function}: 13 graphs, 1000000 units each; decided 13 -> 13; "
                f"mismatches 0; units {report['units'][0]} -> {report['units'][1]}; "
                f"rose 0, fell 0; ")
        # Then each side's CPU time, and that time over its units.
        cpu = re.fullmatch(re.escape(head) + r"cpu (\d+\.\d\d) s -> (\d+\.\d\d) s; "
                           r"us per unit (\d+\.\d{3}) -> (\d+\.\d{3})", line)
        assert cpu
        for side in (0, 1):
            assert float(cpu[side + 1]) == round(report["seconds"][side], 2)
            assert float(cpu[side + 3]) == pytest.approx(
                report["seconds"][side] * 1e6 / report["units"][side], abs=5e-4)
        tight = tool.compare(copy, graphcode, function, sample, 40)
        assert 0 < tight["decided"][0] == tight["decided"][1] < len(sample)
        assert not tight["lost"] and not tight["gained"]


def test_differential_reports_each_kind_of_difference(copy, monkeypatch):
    # theta_t one too high on graphs with an edge, minimum_total_coverings
    # out of budget on graphs with more than five vertices, and code
    # costing one unit more or less by the vertex count's parity.
    graphs, budget = tool.graphs_of("atlas", graphcode)
    sample = graphs[::100]
    theta, listing, code = copy.theta_t, copy.minimum_total_coverings, copy.code

    def shifted(g, tracker):
        return theta(g, tracker) + (g.edge_count > 0)

    def capped(g, tracker):
        if g.vertex_count > 5:
            raise copy.BudgetExceededError(tracker.limit)
        return listing(g, tracker)

    def uneven(g, tracker):
        sigma = code(g, tracker)
        tracker.used += 1 if g.vertex_count % 2 else -1
        return sigma

    for name, function in (("theta_t", shifted), ("minimum_total_coverings", capped),
                           ("code", uneven)):
        monkeypatch.setattr(copy, name, function)
    drawn = {(n, bool(edges)) for _, n, edges in sample}
    assert (1, False) in drawn and (7, True) in drawn
    theta_report = tool.compare(graphcode, copy, "theta_t", sample, budget)
    assert theta_report["mismatches"] == [name for name, _, edges in sample if edges]
    listing_report = tool.compare(graphcode, copy, "minimum_total_coverings", sample, budget)
    assert listing_report["lost"] == [name for name, n, _ in sample if n > 5]
    assert listing_report["decided"][1] < listing_report["decided"][0] == len(sample)
    assert not listing_report["mismatches"]
    code_report = tool.compare(graphcode, copy, "code", sample, budget)
    assert [entry[0] for entry in code_report["rose"]] == [
        name for name, n, _ in sample if n % 2]
    assert len(code_report["rose"]) + len(code_report["fell"]) == len(sample)
    lines = tool.render("atlas theta_t", theta_report)
    assert "mismatches 0" not in lines[0] and lines[1].startswith("  mismatches: ")


def test_cli_round_compares_calls_byte_for_byte(copy, tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT))
    try:
        calls = tool.cli_calls(tmp_path)
    finally:
        sys.path.remove(str(ROOT))
    assert len(calls) == 4088
    assert all(argv[-2:] == ["--budget", "1000000"] for argv in calls)
    sample = calls[::500] + [["gen", "--family", "cycle", "--n", "2", "--budget", "10"],
                             ["code", str(tmp_path / "missing.g6")]]
    report = tool.compare_cli(copy, graphcode, sample)
    assert report == {"calls": len(sample), "differ": []}
    assert tool.render_cli(report) == [f"cli: {len(sample)} calls; differing 0"]
    assert tool.call(copy, sample[-1])[0] == 1
    # A copy that renders codes differently differs where a code is printed:
    # in this sample, on the iso call alone.
    monkeypatch.setattr(sys.modules["graphcode_copy.cli"], "render_sequence", lambda sigma: "?")
    report = tool.compare_cli(copy, graphcode, sample)
    assert report["differ"] == [argv for argv in sample if argv[0] == "iso"] != []
    assert tool.render_cli(report)[1] == "  differ: " + " ".join(report["differ"][0])


def test_conversions_round_compares_results_messages_and_units(copy, monkeypatch):
    calls = tool.conversion_calls(graphcode)
    assert len(calls) == 1500 * 6 + (len(tool.MALFORMED) + 1500 * 6) * 3
    # Every covering's six calls come first, then three per sequence,
    # the malformed cases leading.
    sample = calls[:30] + calls[9000:9060] + calls[-25:] + calls[::700]
    report = tool.compare_conversions(copy, graphcode, sample)
    assert report == {"calls": len(sample), "differ": []}
    assert tool.render_conversions(report) == [f"conversions: {len(sample)} calls; differing 0"]
    outcomes = [tool.convert(graphcode, *c) for c in sample]
    assert {type(result) for result, _ in outcomes} >= {tuple, list, bool}
    assert ("ValueError", "coding sequence must be non-empty") in [r for r, _ in outcomes]
    assert any(units for _, units in outcomes)
    assert any(units for c, (_, units) in zip(sample, outcomes) if c[0] == "sigma_of_covering")
    # A copy whose shape check words one error differently, and whose
    # polynomials drop the constant term, differs on exactly those calls.
    shape = copy.coding._sequence_memberships

    def reworded(entries, tracker):
        if entries and entries[0] == 0:
            raise ValueError("zero entry")
        return shape(entries, tracker)

    for module in (copy.coding, copy.polynomials):
        monkeypatch.setattr(module, "_sequence_memberships", reworded)
    poly = copy.poly_from_covering
    monkeypatch.setattr(copy, "poly_from_covering",
                        lambda g, cov: copy.GraphPolynomial(
                            {m: c for m, c in poly(g, cov).terms.items() if m}
                            or {(1,): 1}))
    report = tool.compare_conversions(graphcode, copy, sample)
    zero = [c for c in sample if c[1] is None and c[2][0][:1] == (0,)]
    constant = [c for c in sample if c[0] == "poly_from_covering"
                and () in dict(tool.convert(graphcode, *c)[0])]
    assert zero and report["differ"] == [c for c in sample if c in zero or c in constant]
    assert tool.render_conversions(report)[1].startswith("  differ: ")
