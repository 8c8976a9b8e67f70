"""Compare two output digests and fail only if a `validate` report moved.

Usage, with two files that `tools/output_digest.py` printed at a base
commit and at the commit under test:

    python3 tools/digest_moved.py base-digest.txt head-digest.txt

It prints each config whose line moved (a changed exit code or digest,
or a config only one side has) with both lines, and appends the same
report to the file that `GITHUB_STEP_SUMMARY` names, when it is set. It
exits 1 when a `validate-*` line moved: `validate` reports are promised
byte-identical. Other lines may move on purpose, with CHANGES.md saying
why, so they are reported but do not fail.
"""
import os
import sys


def read_digest(path):
    """``{config: line}`` from one digest file."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    return {line.split(" ", 1)[0]: line for line in lines}


def moved_lines(base, head):
    """``(config, base line, head line)`` for each config whose line
    differs, in head order then base-only configs; a missing line is
    None."""
    names = list(head) + [name for name in base if name not in head]
    return [(name, base.get(name), head.get(name)) for name in names
            if base.get(name) != head.get(name)]


def report(moved):
    if not moved:
        return "No output digest line moved.\n"
    out = [f"{len(moved)} output digest line(s) moved:", ""]
    for name, old, new in moved:
        out += [f"- {name}", f"  base: {old}", f"  head: {new}"]
    return "\n".join(out) + "\n"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    moved = moved_lines(read_digest(argv[0]), read_digest(argv[1]))
    text = report(moved)
    print(text, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write("### Output digest against the base commit\n\n```\n"
                         + text + "```\n")
    return 1 if any(name.startswith("validate-") for name, _, _ in moved) \
        else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
