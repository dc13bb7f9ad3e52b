"""Child process of the benchmark: a traced CLI call or the library loop.

    child.py cli TRACE_JSON ARGS...
        run ``deformkit ARGS...`` with the layer trace installed and write
        the trace to TRACE_JSON; exits with the CLI's exit code.
    child.py opnorm INPUT RESULT_JSON PASSES SECONDS TRACE
        load the grid symbol INPUT and run passes of
        operator_norm(rieffel_operator(f, J)) at each theta in THETAS until
        at least PASSES passes and SECONDS seconds are done.  With TRACE = 1
        it runs one untraced pass, then one traced pass.

deformkit is imported from the PYTHONPATH the parent sets.
"""

from __future__ import annotations

import json
import sys
import time

import tracer

THETAS = (0.0, 0.25)


def run_cli(trace_path, argv):
    t = tracer.Tracer()
    tracer.install(t)
    from deformkit import verify_cli

    code = verify_cli.main(argv)
    t.dump(trace_path)
    return code


def run_opnorm(input_path, result_path, passes_wanted, seconds, trace):
    from deformkit import pseudodiff
    from deformkit.symbols import DeformationMatrix, read_symbol_file

    f = read_symbol_file(input_path)
    t = None

    def one_pass():
        norms, seconds_per_call = {}, {}
        for theta in THETAS:
            J = DeformationMatrix.symplectic(theta, f.n)
            start = time.perf_counter()
            # Looked up on the module so that an installed trace applies.
            norms[repr(theta)] = pseudodiff.operator_norm(pseudodiff.rieffel_operator(f, J))
            seconds_per_call[repr(theta)] = time.perf_counter() - start
        return {"seconds": seconds_per_call, "norms": norms}

    passes = []
    if trace:
        passes.append(one_pass())
        t = tracer.Tracer()
        tracer.install(t)
        passes.append(one_pass())
    else:
        start = time.perf_counter()
        while len(passes) < passes_wanted or time.perf_counter() - start < seconds:
            passes.append(one_pass())
    result = {"passes": passes, "trace": None}
    if t is not None:
        t.dump(result_path + ".trace")
        result["trace"] = result_path + ".trace"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv):
    if argv[:1] == ["cli"]:
        return run_cli(argv[1], argv[2:])
    if argv[:1] == ["opnorm"]:
        input_path, result_path, passes, seconds, trace = argv[1:6]
        return run_opnorm(input_path, result_path, int(passes), float(seconds),
                          trace == "1")
    print(__doc__, file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
