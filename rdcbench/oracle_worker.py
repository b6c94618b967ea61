"""Long-lived worker of the library-oracles workload.

Pays rdclab's import once, announces itself with one JSON line, then answers
one JSON task per stdin line with one JSON reply per stdout line until stdin
closes.  Each reply carries the task's CPU time and the process's peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys

import oracle_tasks


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        task = json.loads(line)
        start = _cpu_s()
        try:
            reply = {"ok": True, "out": oracle_tasks.run(task)}
        except Exception as exc:  # reported to the driver, which counts the task failed
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        reply["cpu_s"] = _cpu_s() - start
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
