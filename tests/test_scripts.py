"""Usage-error tests for the `kchain noise-sweep --figure 2|3` and
`kchain verify-all` commands.

COMMANDS maps each case's key to the command line it runs; the keys
(run_fig2, run_fig3, verify_all) are part of the test ids.
"""

import pytest

from kchain.cli import main

COMMANDS = {
    "run_fig2": ["noise-sweep", "--figure", "2"],
    "run_fig3": ["noise-sweep", "--figure", "3"],
    "verify_all": ["verify-all"],
}


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_run_fig2_bad_threads_is_a_usage_error(capsys, threads):
    code, err = usage_error(capsys, "--threads", threads, *COMMANDS["run_fig2"])
    assert code == 2
    assert "argument --threads:" in err
    assert f"must be a positive integer, got '{threads}'" in err


# fig2's odd-N message ("fig2 needs even N >= 4") is checked in test_cli.py;
# the fig2 --n row here checks the shared lower bound on N.
@pytest.mark.parametrize("name, argv, fragment", [
    ("run_fig3", ["--samples", "0"], "argument --samples: must be a positive integer"),
    ("run_fig3", ["--n", "1"], "argument --n: must be an integer >= 2"),
    ("run_fig3", ["--eps", "1.0"], "argument --eps: noise amplitude must lie in [0, 1)"),
    ("run_fig2", ["--n", "1"], "argument --n: must be an integer >= 2"),
    ("run_fig2", ["--seed", "-1"], "argument --seed: must be an integer >= 0"),
    ("run_fig2", ["--m-min", "4", "--m-max", "3"], "argument --m-max: must be >= --m-min"),
    ("verify_all", ["--n-max", "1"], "argument --n-max: must be an integer >= 2"),
    ("verify_all", ["--n-max", "11"], "argument --n-max: must be at most 10"),
])
def test_script_flags_out_of_range_are_usage_errors(capsys, name, argv, fragment):
    code, err = usage_error(capsys, *COMMANDS[name], *argv)
    assert code == 2
    assert fragment in err
