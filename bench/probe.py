"""Set-up probe, run in a fresh interpreter: time `import dringkit.cli` and
one `dringkit divides x^2+1 x+1` call from inside the process, so that
interpreter start-up is left out, then sample the reference kernel (see
calibrate.py) to rescale both times. Prints one JSON object."""

import io
import sys
import time

start = time.perf_counter()
import dringkit.cli  # noqa: E402

imported = time.perf_counter()
captured, sys.stdout = sys.stdout, io.StringIO()
try:
    code = dringkit.cli.main(["divides", "x^2+1", "x+1"])
finally:
    captured, sys.stdout = sys.stdout, captured
done = time.perf_counter()

import json  # noqa: E402

import calibrate  # noqa: E402

reference_s = calibrate.sample(runs=5) / 1e9
print(json.dumps({
    "import_s": imported - start,
    "first_request_s": done - imported,
    "reference_s": reference_s,
    "exit_code": code,
    "output": captured.getvalue(),
    "module": dringkit.cli.__file__,
}))
