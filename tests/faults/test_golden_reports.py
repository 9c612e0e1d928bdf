"""Golden reports: the chaos, stats, trace and sessions verbs, byte for byte.

Every command the CI workflow runs through ``repro chaos``, ``repro
stats``, ``repro trace`` and ``repro sessions``, the default scenario
of every chaos mode, and the ``--help`` text of the three chaos-facing
verbs run in-process through :func:`repro.cli.main`; stdout and the
exit code must equal the checked-in files under ``golden/``.

Only what truly varies between two runs of the same command is
masked: the wall-clock ``events/sec`` and ``match latency`` rows of
``repro stats`` (with the padding of their table), and the temporary
paths handed to ``--wal-out``, ``--metrics-out`` and ``--trace-out``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: (name, argv); ``{tmp}`` expands to the test's temporary directory.
COMMANDS = [
    # -- .github/workflows/ci.yml ------------------------------------------
    ("chaos", ["chaos", "--events", "120", "--subscriptions", "120",
               "--crashes", "1", "--crash-length", "40"]),
    ("chaos-unreliable", ["chaos", "--events", "120", "--subscriptions",
                          "120", "--crashes", "1", "--crash-length", "40",
                          "--unreliable"]),
    ("overload-burst", ["chaos", "--overload", "--events", "150",
                        "--subscriptions", "120", "--queue-capacity", "24",
                        "--shed-policy", "ttl-priority", "--ttl", "300",
                        "--admission-rate", "8"]),
    ("overload-dead-subscriber", ["chaos", "--overload", "--scenario",
                                  "dead-subscriber", "--events", "120",
                                  "--subscriptions", "120"]),
    ("overload-resubscribe", ["chaos", "--overload", "--scenario",
                              "resubscribe", "--crashes", "0", "--loss",
                              "0.02", "--events", "120",
                              "--subscriptions", "120"]),
    ("stats-overload", ["stats", "--overload", "--events", "120",
                        "--subscriptions", "120", "--crashes", "1",
                        "--crash-length", "40"]),
    ("crash-recovery-clean", ["chaos", "--crash-recovery", "--events",
                              "200", "--subscriptions", "120", "--crashes",
                              "2", "--crash-length", "40", "--wal-out",
                              "{tmp}/broker.wal"]),
    ("crash-recovery-torn-tail", ["chaos", "--crash-recovery", "--events",
                                  "200", "--subscriptions", "120",
                                  "--crashes", "2", "--crash-length", "40",
                                  "--corrupt-wal", "torn-tail"]),
    ("crash-recovery-bit-flip", ["chaos", "--crash-recovery", "--events",
                                 "200", "--subscriptions", "120",
                                 "--crashes", "2", "--crash-length", "40",
                                 "--corrupt-wal", "bit-flip"]),
    ("stats-crash-recovery", ["stats", "--crash-recovery", "--events",
                              "120", "--subscriptions", "120", "--crashes",
                              "1", "--crash-length", "40"]),
    ("failover-kill", ["chaos", "--failover", "--events", "150",
                       "--subscriptions", "150"]),
    ("failover-partition", ["chaos", "--failover", "--failover-scenario",
                            "partition", "--events", "150",
                            "--subscriptions", "150"]),
    ("failover-catchup", ["chaos", "--failover", "--failover-scenario",
                          "catchup", "--events", "150",
                          "--subscriptions", "150"]),
    ("stats-failover", ["stats", "--failover", "--events", "120",
                        "--subscriptions", "120"]),
    ("sharded-clean", ["chaos", "--sharded", "--events", "200",
                       "--subscriptions", "150", "--shards", "4"]),
    ("sharded-shard-kill", ["chaos", "--sharded", "--sharded-scenario",
                            "shard-kill", "--events", "200",
                            "--subscriptions", "150", "--shards", "4"]),
    ("sharded-migration-crash", ["chaos", "--sharded", "--sharded-scenario",
                                 "migration-crash", "--events", "200",
                                 "--subscriptions", "150", "--shards", "4"]),
    ("cluster-kill", ["chaos", "--cluster", "--events", "200",
                      "--subscriptions", "150", "--shards", "4"]),
    ("cluster-partition", ["chaos", "--cluster", "--cluster-scenario",
                           "partition", "--events", "200",
                           "--subscriptions", "150", "--shards", "4"]),
    ("cluster-double-kill", ["chaos", "--cluster", "--cluster-scenario",
                             "double-kill", "--events", "200",
                             "--subscriptions", "150", "--shards", "4"]),
    ("cluster-migrate-under-kill", ["chaos", "--cluster",
                                    "--cluster-scenario",
                                    "migrate-under-kill", "--events", "200",
                                    "--subscriptions", "150", "--shards",
                                    "4"]),
    ("stats-cluster", ["stats", "--cluster", "--events", "150",
                       "--subscriptions", "150"]),
    ("sessions-crash", ["chaos", "--sessions", "--events", "160",
                        "--subscriptions", "150"]),
    ("sessions-flap", ["chaos", "--sessions", "--session-scenario", "flap",
                       "--events", "160", "--subscriptions", "150"]),
    ("sessions-slow-consumer", ["chaos", "--sessions", "--session-scenario",
                                "slow-consumer", "--events", "160",
                                "--subscriptions", "150"]),
    ("sessions-poison", ["chaos", "--sessions", "--session-scenario",
                         "poison", "--events", "160",
                         "--subscriptions", "150"]),
    ("sessions-stats", ["sessions", "stats", "--events", "120",
                        "--scenario", "crash"]),
    ("sessions-dlq", ["sessions", "dlq", "--events", "120", "--redrive"]),
    ("stats-exports", ["stats", "--events", "120", "--subscriptions", "120",
                       "--crashes", "1", "--crash-length", "40",
                       "--metrics-out", "{tmp}/metrics.prom",
                       "--trace-out", "{tmp}/spans.jsonl"]),
    ("trace-pretty", ["trace", "--event", "3", "--events", "120",
                      "--subscriptions", "120", "--crashes", "1",
                      "--crash-length", "40", "--pretty"]),
    # -- the default scenario of every chaos mode --------------------------
    ("default-chaos", ["chaos", "--events", "200", "--subscriptions", "120"]),
    ("default-overload", ["chaos", "--overload", "--events", "200",
                          "--subscriptions", "120"]),
    ("default-crash-recovery", ["chaos", "--crash-recovery", "--events",
                                "200", "--subscriptions", "120"]),
    ("default-failover", ["chaos", "--failover", "--events", "200",
                          "--subscriptions", "120"]),
    ("default-sharded", ["chaos", "--sharded", "--events", "200",
                         "--subscriptions", "120"]),
    ("default-cluster", ["chaos", "--cluster", "--events", "200",
                         "--subscriptions", "120"]),
    ("default-sessions", ["chaos", "--sessions", "--events", "200",
                          "--subscriptions", "120"]),
    # -- the flag surface ---------------------------------------------------
    ("help-chaos", ["chaos", "--help"]),
    ("help-stats", ["stats", "--help"]),
    ("help-trace", ["trace", "--help"]),
]

#: Wall-clock rows of ``repro stats``: everything after the label varies.
_WALL_CLOCK = re.compile(r"^(events/sec|match latency p(?:50|95|99) \(us\)) \S+$")


def normalise(stdout: str, tmp: str) -> str:
    """Mask the temporary directory and the wall-clock stats rows.

    The first table of ``repro stats`` right-aligns its values to the
    widest one, so a wall-clock value also moves the padding of every
    row: that table is compared with whitespace runs collapsed and the
    separator's dashes squeezed.
    """
    stdout = stdout.replace(tmp, "{tmp}")
    if not stdout.startswith("instrumented run:"):
        return stdout
    head, sep, rest = stdout.partition("\n\n")
    title, *table = head.split("\n")
    rows = [" ".join(line.split()) for line in table]
    rows = [_WALL_CLOCK.sub(r"\1 <wall-clock>", row) for row in rows]
    rows[1] = re.sub("-+", "-", rows[1])
    return "\n".join([title, *rows]) + sep + rest


def run_command(argv, tmp_path, capsys, monkeypatch):
    """Run one CLI command in-process: (exit code, normalised stdout)."""
    # argparse wraps --help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    tmp = str(tmp_path)
    args = [arg.replace("{tmp}", tmp) for arg in argv]
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exit_:
        code = exit_.code
    return int(code or 0), normalise(capsys.readouterr().out, tmp)


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize(
    "name, argv", COMMANDS, ids=[name for name, _ in COMMANDS]
)
def test_report_matches_golden(
    name, argv, exit_codes, tmp_path, capsys, monkeypatch
):
    code, stdout = run_command(argv, tmp_path, capsys, monkeypatch)
    assert code == exit_codes[name]
    assert stdout == (GOLDEN / f"{name}.txt").read_text()
