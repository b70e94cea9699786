import importlib.util
import json
from importlib import resources
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generators_reproduce_the_shipped_data(tmp_path, capsys):
    # the generators build the data from concrete models and validate it with
    # the current kernel, so any drift in either shows up as changed bytes
    _tool("make_catalog").main(["--out-dir", str(tmp_path)])
    _tool("make_certs").main(["--out-dir", str(tmp_path)])
    capsys.readouterr()
    shipped = resources.files("superdegen.data")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in shipped.iterdir() if p.name.endswith(".json"))
    for name in names:
        assert (tmp_path / name).read_bytes() == shipped.joinpath(name).read_bytes(), name


def _run_record(seed, trace, pass_s, rss, problems=(), errors=0):
    return {
        "workload": "atlas", "seed": seed, "seconds": 30.0, "trace": trace, "python": ["3.11.7"],
        "problems": list(problems),
        "passes": [{"seconds": pass_s, "commands": [{"error": None}] * 3 + [{"error": "boom"}] * errors}],
        "metrics": ({"setup_s": 0.2, "pass_s": pass_s, "items_per_s": 222 / pass_s, "peak_rss_mb": rss}
                    if trace == 0 else {"structure.validate_s": pass_s / 2, "cyclo.mul": 1000}),
    }


def test_bench_record_pairs_two_run_records(tmp_path, capsys):
    for side, pass_s, rss in (("parent", 3.0, 20.0), ("change", 1.8, 20.4)):
        out = tmp_path / side
        out.mkdir()
        for trace in (0, 1):
            (out / f"atlas-seed7-trace{trace}.json").write_text(json.dumps(_run_record(7, trace, pass_s, rss)))
    _tool("bench_record").main(["6", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                                "--seeds", "atlas=7", "--traced-seed", "7", "--summary", "s",
                                "--out-dir", str(tmp_path)])
    capsys.readouterr()
    bench = json.loads((tmp_path / "BENCH_6.json").read_text())
    atlas = bench["end_to_end"]["workloads"]["atlas"]
    assert atlas["seeds"] == [7] and atlas["all_correct_0_failed"]
    assert atlas["passes"] == {"parent": [1], "change": [1]}
    assert atlas["pass_s"]["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0, "runs": [3.0]}
    assert atlas["pass_s"]["change_better_in_pairs"] == "1 of 1"
    assert atlas["pass_s"]["change_over_parent_median"] == 0.6
    assert atlas["items_per_s"]["change_better_in_pairs"] == "1 of 1"  # higher is better
    assert atlas["peak_rss_mb"]["change_better_in_pairs"] == "0 of 1"
    traced = bench["traced"]["workloads"]["atlas"]
    assert traced["parent"]["structure.validate_s"] == 1.5 and traced["change"]["cyclo.mul"] == 1000
    assert bench["python"] == "3.11.7" and "--seconds 30 " in bench["command"]


def test_bench_record_flags_failed_operations(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        record = _run_record(1, 0, 2.0, 20.0, errors=1 if side == "change" else 0)
        (tmp_path / side / "atlas-seed1-trace0.json").write_text(json.dumps(record))
    _tool("bench_record").main(["7", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                                "--seeds", "atlas=1", "--summary", "s", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert not bench["end_to_end"]["workloads"]["atlas"]["all_correct_0_failed"]
    assert "traced" not in bench


def test_bench_record_gives_each_command_its_median_elapsed(tmp_path, capsys):
    # two runs per side, two passes each: the median of each command is taken
    # over its four passes, a command that raised is left out
    def command(argv, elapsed, error=None):
        return {"argv": argv, "elapsed": elapsed, "cpu": elapsed, "items": 1, "error": error, "trace": None}
    check, tables = ["--json", "check", "spec_dim2"], ["tables", "--kind", "stab"]
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        (tmp_path / side).mkdir()
        for seed, shift in ((1, 0.0), (2, 0.02)):
            record = _run_record(seed, 0, 0.3, 20.0)
            record["passes"] = [{"seconds": 0.3, "commands": [command(check, scale * (0.04 + shift + k * 0.01)),
                                                              command(tables, scale * (0.10 + shift + k * 0.01))]}
                                for k in range(2)]
            record["passes"][0]["commands"].append(command(tables, 9.0, error="boom"))
            (tmp_path / side / f"atlas-seed{seed}-trace0.json").write_text(json.dumps(record))
    _tool("bench_record").main(["8", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                                "--seeds", "atlas=1-2", "--summary", "s", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    per_command = json.loads((tmp_path / "BENCH_8.json").read_text())["end_to_end"]["workloads"]["atlas"][
        "command_elapsed_s"]
    # parent runs: 0.04, 0.05, 0.06, 0.07 for check; 0.10 .. 0.13 for tables
    assert per_command == {
        "--json check spec_dim2": {"parent": 0.055, "change": 0.0275, "change_over_parent": 0.5},
        "tables --kind stab": {"parent": 0.115, "change": 0.0575, "change_over_parent": 0.5},
    }
