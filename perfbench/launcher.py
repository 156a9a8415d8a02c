"""Starts the benchmark's CLI subprocesses, one at a time.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin, ``{"args": [...], "stdout":
PATH, "stderr": PATH}``, runs ``python ARGS`` with its output in those
files, waits for it and answers one JSON line with the wall seconds,
exit code and the child's max RSS in KiB.  It ends when stdin closes.

The benchmark process grows as it runs jobs, and a child spawned from
it reports that process's peak RSS as its own (Linux records the old
address space's high-water mark at exec).  This launcher stays small,
so its children report their own peak.
"""

import json
import os
import sys
from time import perf_counter

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = perf_counter()
        argv = [sys.executable, *request["args"]]
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = perf_counter() - start
    answer = {"seconds": seconds, "code": os.waitstatus_to_exitcode(status), "maxrss": usage.ru_maxrss}
    print(json.dumps(answer), flush=True)
