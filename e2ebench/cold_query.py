"""Cold-query split: one query in a fresh interpreter, timed by phase.

    python e2ebench/cold_query.py STORE_DIR "top 10"

Does what ``python -m repro.store query STORE_DIR "top 10" --reader``
does, in the same order, but times each phase: importing the library,
``SnapshotReader.open``, the first ``bias_correction_factor`` call (the
``theory`` constant every fresh process computes once) and the query
itself (parse, plan, batched estimation). Prints the rows the way the
CLI does, then one JSON line with the phase times in seconds and the
wall-clock time the script started at, from which the caller derives
interpreter start-up time. The
benchmark runs it once per cold sample of its traced run; the untraced
run times the real CLI instead.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time


def main(argv: "list[str]") -> int:
    spawned_at = time.time()
    directory, text = argv
    started = time.perf_counter()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    from repro.query import query
    from repro.store import SnapshotReader

    imported = time.perf_counter()
    reader = SnapshotReader.open(directory)
    opened = time.perf_counter()
    from repro.aggregate import DistinctCountAggregator
    from repro.core.mlestimation import bias_correction_factor
    from repro.core.params import make_params

    t, d, p, _, _ = reader.config
    bias_correction_factor(make_params(t, d, p))
    constant = time.perf_counter()
    result = query(reader, text)
    solved = time.perf_counter()
    reader.close()
    for key, estimate in result.rows:
        print(f"{DistinctCountAggregator.decode_key(key)}\t{estimate:.1f}")
    print(
        json.dumps(
            {
                "spawned_at": spawned_at,
                "process.import_s": imported - started,
                "cold.reader_open_s": opened - imported,
                "theory.bias_constant_s": constant - opened,
                "cold.solve_s": solved - constant,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
