#!/usr/bin/env python3
"""Fail when a test pattern in a CI job names no test.

`go test` passes silently when its -run pattern or -fuzz target matches
nothing: it prints "ok ... [no tests to run]" or "PASS". A renamed or
deleted test then drops out of a suite and nothing says so. For every
`go test` command in the named jobs of the workflow, this script lists the
tests of the command's packages with `go test -list` and checks that each
top-level |-alternative of the command's -fuzz pattern (or, when it has no
-fuzz, its -run pattern) matches at least one test, fuzz target or example
of those packages, and that the whole pattern matches at least one test of
each package the command lists.

Usage: python3 .github/check_test_patterns.py [--workflow PATH] JOB...
"""

import argparse
import functools
import re
import subprocess
import sys

PATTERN = {flag: re.compile(r"(?<!\S)-" + flag + r"\s+'([^']*)'") for flag in ("fuzz", "run")}
PACKAGE = re.compile(r"(?<!\S)(\./\S+)")
NAME = re.compile(r"^(Test|Fuzz|Example)\w*$")


def job_lines(workflow, job):
    """The lines of one job's block: from "  job:" to the next job key."""
    lines, inside = [], False
    for line in workflow.splitlines():
        if re.match(r"^  \S", line):
            inside = line.strip() == job + ":"
        elif inside:
            lines.append(line)
    return lines


def alternatives(pattern):
    """Split a regexp on the | characters outside parentheses and brackets."""
    alts, depth, start = [], 0, 0
    for i, ch in enumerate(pattern):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "|" and depth == 0:
            alts.append(pattern[start:i])
            start = i + 1
    alts.append(pattern[start:])
    return alts


@functools.cache
def test_names(packages):
    """The tests, fuzz targets and examples of a tuple of packages."""
    out = subprocess.run(["go", "test", "-list", ".", *packages],
                         capture_output=True, text=True, check=True).stdout
    return [line for line in out.splitlines() if NAME.match(line)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workflow", default=".github/workflows/ci.yml")
    ap.add_argument("jobs", nargs="+")
    args = ap.parse_args()
    workflow = open(args.workflow).read()

    failed = False
    for job in args.jobs:
        commands, dead = 0, 0
        for line in job_lines(workflow, job):
            if line.strip().startswith("#") or "go test" not in line:
                continue
            flag = "fuzz" if PATTERN["fuzz"].search(line) else "run"
            m = PATTERN[flag].search(line)
            packages = tuple(PACKAGE.findall(line))
            if not m or not packages:
                continue
            commands += 1
            names = test_names(packages)
            for alt in alternatives(m.group(1)):
                if not any(re.search(alt, n) for n in names):
                    print(f"{job}: -{flag} alternative {alt!r} matches no test in {' '.join(packages)}")
                    dead += 1
            for pkg in packages:
                if not any(re.search(m.group(1), n) for n in test_names((pkg,))):
                    print(f"{job}: -{flag} pattern matches no test in {pkg}, which the command lists")
                    dead += 1
        if commands == 0:
            print(f"{job}: no go test command with a -run or -fuzz pattern")
            dead += 1
        elif dead == 0:
            print(f"{job}: {commands} go test commands, every pattern matches a test")
        failed = failed or dead > 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
