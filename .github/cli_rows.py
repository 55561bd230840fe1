"""Run orbitmoments CLI rows, each in its own process, and check what each prints.

    PYTHONPATH=src python3 .github/cli_rows.py 'ROW' ['ROW' ...]

A row is 'ARGS; KEY=VALUE ...; MB': the CLI arguments, which run under
-W error with --format json; the fields that the JSON output must hold,
each VALUE read as JSON, or else as a string; and, optionally, a bound on
the peak RSS of the process in MB.  Each row prints its seconds and peak
RSS, and the first row that fails a check stops the run with an error.
"""

import json
import os
import subprocess
import sys
import time


def run_row(row: str):
    args, fields, *bound = [part.strip() for part in row.split(";")]
    cmd = [sys.executable, "-W", "error", "-m", "orbitmoments", "--format", "json", *args.split()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds, rss_mb = time.monotonic() - start, usage.ru_maxrss / 1024  # kilobytes on Linux
    assert status == 0, (args, status, out)
    report = json.loads(out)
    for field in fields.split():
        key, text = field.split("=", 1)
        try:
            want = json.loads(text)
        except ValueError:
            want = text
        assert report.get(key) == want, (args, key, want, out)
    print(f"{args}: {fields} in {seconds:.2f} s, peak RSS {rss_mb:.1f} MB")
    if bound:
        assert rss_mb < float(bound[0]), (args, rss_mb)


if __name__ == "__main__":
    for row in sys.argv[1:]:
        run_row(row)
