"""Command-line driver for workbench files.

Verbs: `check` (parse and build, reporting diagnostics, also for a task
degree that `run` would reject), `run` (execute
tasks), `verify-paper` (run one of the randomized theorem-verification
suites).  Exit code 0 means everything requested passed.
"""

from __future__ import annotations

import argparse
import sys

from . import dsl, runner, verification


def _load(path, out, build):
    """The parsed (and if build, built) document, or None once diagnostics
    are printed to out (to stderr for a file that cannot be read)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"{path}: cannot read: {exc.strerror or exc}", file=sys.stderr)
        return None
    doc, diags = dsl.parse(data)
    if build and not diags:
        diags = runner.build_environment(doc)[1]
    for d in diags:
        print(f"{path}:{d}", file=out)
    return None if diags else doc


def cmd_check(ns) -> int:
    doc = _load(ns.file, sys.stdout, build=True)
    if doc is None:
        return 1
    diags = runner.degree_diagnostics(doc)
    for d in diags:
        print(f"{ns.file}:{d}")
    if diags:
        return 1
    print(f"{ns.file}: {len(doc.decls)} declarations ok")
    return 0


def cmd_run(ns) -> int:
    doc = _load(ns.file, sys.stderr, build=False)
    if doc is None:
        return 1
    if ns.task is not None and ns.task not in {d.name for d in doc.tasks()}:
        print(f"{ns.file}: no task named {ns.task!r}", file=sys.stderr)
        return 1
    report = runner.run(doc, task=ns.task, max_degree=ns.max_degree,
                        seed=ns.seed)
    sys.stdout.buffer.write(runner.emit(report, fmt=ns.format))
    sys.stdout.buffer.flush()
    return 0 if report.ok() else 1


def cmd_verify_paper(ns) -> int:
    doc = _load(ns.file, sys.stderr, build=True)
    if doc is None:
        return 1
    rep = verification.run_suite(ns.suite, ns.seed, ns.cases)
    print(f"suite {ns.suite} seed {ns.seed}: {rep.summary()}")
    for fail in rep.failures[:10]:
        print(f"  failure: {fail}")
    return 0 if rep.ok() else 1


def _case_count(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="functor-homology",
        description="Exact homological algebra workbench over diagram "
                    "categories.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p_check = sub.add_parser("check", help="parse and validate a workbench file")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run the tasks of a workbench file")
    p_run.add_argument("file")
    p_run.add_argument("--task", default=None, help="run only this task")
    p_run.add_argument("--max-degree", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None,
                       help="default seed for verify tasks")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(fn=cmd_run)

    p_vp = sub.add_parser("verify-paper",
                          help="run a randomized theorem-verification suite")
    p_vp.add_argument("file", help="workbench file providing context "
                                   "declarations (may be empty)")
    p_vp.add_argument("--suite", required=True,
                      choices=sorted(verification.SUITES))
    p_vp.add_argument("--seed", type=int, required=True)
    p_vp.add_argument("--cases", type=_case_count, default=50)
    p_vp.set_defaults(fn=cmd_verify_paper)

    ns = ap.parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    raise SystemExit(main())
