"""CLI tests (fast paths only; figure sweeps are exercised in benchmarks)."""

import pytest

from repro.experiments import cli
from repro.experiments.cli import main
from repro.experiments.figures import FigureResult


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "hybrid-shipping" in out


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "PageSize" in out


def test_figure_with_tiny_sweep(capsys):
    code = main(["fig2", "--seeds", "3", "--cache", "0", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "figure2" in out
    assert "regenerated in" in out


def test_server_figure_with_tiny_sweep(capsys):
    code = main(["fig6", "--seeds", "3", "--servers", "1", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "figure6" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_qs_load(capsys):
    code = main(["qs-load", "--seeds", "3"])
    assert code == 0
    assert "QS" in capsys.readouterr().out


def test_throughput_sweep_with_tiny_sweep(capsys):
    code = main(["throughput-sweep", "--seeds", "3", "--clients", "1", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput-sweep" in out
    assert "p95" in out


def test_list_enumerates_every_experiment(capsys):
    assert main(["--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "table1" in names
    assert "table2" in names
    assert "fig2" in names
    assert "write-mix" in names
    assert names == sorted(names[:2]) + sorted(names[2:])  # tables then figures


def test_list_needs_no_experiment_argument(capsys):
    # --list alongside a name still just lists.
    assert main(["fig2", "--list"]) == 0
    assert "write-mix" in capsys.readouterr().out


def test_missing_experiment_without_list_errors():
    with pytest.raises(SystemExit):
        main([])


def test_write_mix_with_tiny_sweep(capsys):
    code = main(
        [
            "write-mix",
            "--seeds",
            "3",
            "--write-fractions",
            "0",
            "0.5",
            "--clients",
            "2",
            "--queries",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "write-mix" in out
    assert "invalidation" in out
    assert "detection" in out


def test_two_step_caching_is_registered(capsys):
    code = main(["two-step-caching", "--seeds", "3", "--cache", "0", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "two-step-caching" in out
    assert "2-Step" in out
    rows = [line.split()[0] for line in out.splitlines()[4:6]]
    assert rows == ["0", "100"]


@pytest.mark.parametrize(
    "argv, rejected, accepted",
    [
        (["fig2", "--servers", "3"], "--servers", "--cache"),
        (["fault-sweep", "--clients", "4"], "--clients", "--mtbf"),
        (["table1", "--cache", "0.5"], "--cache", "no sweep flags"),
    ],
)
def test_flag_the_experiment_does_not_take_is_rejected(capsys, argv, rejected, accepted):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"does not take {rejected}" in err
    assert accepted in err


def test_all_applies_each_flag_where_it_is_accepted(monkeypatch, capsys):
    calls = {}

    def recorder(name):
        def run(**kwargs):
            calls[name] = kwargs
            return FigureResult(name, name, "x", "y")

        return run

    monkeypatch.setattr(
        cli,
        "_EXPERIMENTS",
        {
            name: experiment._replace(function=recorder(name))
            for name, experiment in cli._EXPERIMENTS.items()
        },
    )
    assert main(["all", "--seeds", "3", "--servers", "2", "--clients", "4", "6"]) == 0
    assert set(calls) == set(cli._EXPERIMENTS)
    assert calls["fig6"]["server_counts"] == (2,)
    assert calls["fig10"]["server_counts"] == (2,)
    assert "server_counts" not in calls["fig2"]
    assert calls["throughput-sweep"]["client_counts"] == (4, 6)
    assert calls["write-mix"]["num_clients"] == 4
    assert "client_counts" not in calls["fault-sweep"]


def test_quick_grid_applies_unless_a_flag_overrides_it(monkeypatch, capsys):
    calls = {}

    def run(**kwargs):
        calls.update(kwargs)
        return FigureResult("fake", "fake", "x", "y")

    experiment = cli._EXPERIMENTS["write-mix"]._replace(function=run)
    monkeypatch.setitem(cli._EXPERIMENTS, "write-mix", experiment)
    assert main(["write-mix", "--quick", "--clients", "5"]) == 0
    assert calls["num_clients"] == 5
    assert calls["write_fractions"] == (0.0, 0.5)
    assert calls["queries_per_client"] == 2
    assert calls["settings"].seeds == (3, 7, 11)
