"""The measured process: runs a workload's finevo commands in passes.

Usage: python3 passes.py SPEC.json RESULT.json

Every command runs in this one process through ``finevo.cli.main(argv)``
with stdout and stderr captured; no thread or process is started. Passes
run back to back until the spec's seconds are spent and the minimum number
of passes is reached. With tracing on, one discarded untraced pass comes
first, so that the first, coldest pass through finevo counts in neither
set; then untraced and traced passes alternate so the tracing overhead is
measured under the same conditions. The reference kernel runs before the
first command and after every command, and the pass time is also given in
units of the mean reference run of the pass (``wall_ref``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from reference import reference_seconds


def _facts(text: str) -> dict:
    """The structural sizes a report states, to compare with the fingerprint."""
    report = json.loads(text)
    return {
        "n": report["input"]["n"],
        "gens": len(report["input"]["generators"]),
        "S": report["semigroup"]["size"],
        "K": report["semigroup"]["kernel_size"],
        "G": report["rees"]["group_order"],
        "p": report["limits"]["p"],
        "W_mu": report["cliques"]["W_mu_size"],
    }


def run_command(cli, command: dict, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = {"label": command["label"], "rc": None, "error": None}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                result["rc"] = cli.main(command["argv"])
            else:
                result["rc"] = tracer.command_span(command["label"], cli.main,
                                                   command["argv"])
    except SystemExit as exc:
        result["rc"] = exc.code
    except Exception as exc:  # a raising command is a failed command, not a crash
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["seconds"] = time.perf_counter() - start
    text = out.getvalue()
    result["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    try:
        result["facts"] = _facts(text)
    except (ValueError, KeyError, TypeError):
        result["facts"] = None
    if err.getvalue():
        result["stderr"] = err.getvalue()[-2000:]
    return result


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import finevo.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"finevo imported from {cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()

    if tracer is not None:
        for command in spec["commands"]:  # warm-up pass, discarded
            run_command(cli, command)
    reference_seconds()  # warm-up
    passes, summaries = [], []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < spec["seconds"]
           or len(passes) < spec["min_passes"]):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        refs = [reference_seconds()]
        commands = []
        try:
            for command in spec["commands"]:
                commands.append(run_command(cli, command, tracer if traced else None))
                refs.append(reference_seconds())
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(c["seconds"] for c in commands)
        passes.append({"traced": traced, "wall_s": wall, "refs": refs,
                       "wall_ref": wall * len(refs) / sum(refs), "commands": commands})
        if traced:
            summaries.append(tracer.summary())
    if tracer is not None:
        tracer.write(spec["spans_out"])

    Path(result_path).write_text(json.dumps({
        "passes": passes,
        "trace": summaries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
