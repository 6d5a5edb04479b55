#!/usr/bin/env python3
"""Lists the public functions of src/ headers that only tests call.

    python3 scripts/test_only_api.py                   # every such name
    python3 scripts/test_only_api.py --ledger DESIGN.md

A name is a public function declared in a header under src/ (a free
function, or a public member of a class or struct; overloads share one
name, printed as Class::name or name). It counts as used when it appears
inside a function body, an initializer or a macro definition anywhere in
src/, bench/, examples/ or perfbench/src/. Names used nowhere there are
printed, one per line, sorted. Matching is by bare identifier, so a name
shared with a used function (size, Get, ...) always counts as used: the
list can miss a test-only function, but never names one that production
code calls.

With --ledger FILE the script checks the list against the ledger in
FILE: every line of the form "- `Name` — reason" below the heading
"Appendix: test-only API ledger". It prints each test-only name the
ledger does not list ("unlisted: Name") and each ledger entry that is no
longer test-only ("stale: Name"), and exits 1 when it printed anything.
scripts/lint.sh runs it that way over DESIGN.md.
"""

import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USE_DIRS = ["src", "bench", "examples", os.path.join("perfbench", "src")]
SOURCE_EXT = (".h", ".cc", ".cpp")
LEDGER_HEADING = "Appendix: test-only API ledger"

IDENT = re.compile(r"[A-Za-z_]\w*")
# "class Name", "struct [[attr]] Name : Base" ... up to an opening brace.
CLASS_HEAD = re.compile(r"\b(class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?"
                        r"(\w+)[^(]*$")
NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "noexcept", "requires", "operator",
}


def strip_comments_and_strings(text):
    """Blanks comments, string and char literals, and preprocessor lines,
    keeping newlines so the scan below sees only code. Returns that code
    and the text of the preprocessor lines (macro bodies are use sites)."""
    out, directives = [], []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            # Preprocessor directive, with backslash continuations.
            start = i
            while i < n and not (text[i] == "\n" and text[i - 1] != "\\"):
                i += 1
            directives.append(text[start:i])
            continue
        if c == "\n":
            out.append(c)
            at_line_start = True
            i += 1
            continue
        if not c.isspace():
            at_line_start = False
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(" ")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out), "\n".join(directives)


def declared_name(stmt):
    """The function a statement declares or defines, or None."""
    stmt = " ".join(stmt.split())
    if not stmt or "(" not in stmt:
        return None
    head = stmt[:stmt.index("(")]
    if re.match(r"(using|typedef|friend|return|namespace)\b", stmt):
        return None
    if "=" in head or "operator" in head or head.rstrip().endswith("~"):
        return None
    names = IDENT.findall(head)
    if not names:
        return None
    name = names[-1]
    if name in NOT_FUNCTIONS or name.isupper() or head.rstrip()[-1:] == ">":
        return None
    return name


class Scanner:
    """Walks one file's code, recording the public functions it declares
    at namespace or public class scope, and the code inside bodies."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            self.code, directives = strip_comments_and_strings(f.read())
        self.declared = set()  # qualified names
        # Text inside function bodies, initializers and macro bodies.
        self.body = [directives]

    def scan(self):
        # Scope stack entries: (kind, name, public?). kind is "ns",
        # "class" or "body".
        stack = [("ns", "", True)]
        stmt = []
        i, n = 0, len(self.code)
        while i < n:
            c = self.code[i]
            kind = stack[-1][0]
            if kind == "body":
                depth = 1
                j = i
                while j < n and depth:
                    if self.code[j] == "{":
                        depth += 1
                    elif self.code[j] == "}":
                        depth -= 1
                    j += 1
                self.body.append(self.code[i:j])
                stack.pop()
                i = j
                stmt = []
                continue
            if c == "{":
                text = "".join(stmt)
                cls = CLASS_HEAD.search(text)
                if re.search(r"\bnamespace\b", text):
                    stack.append(("ns", "", True))
                elif cls and "(" not in text:
                    stack.append(("class", cls.group(2),
                                  cls.group(1) != "class"))
                else:
                    self.record(text, stack)
                    stack.append(("body", "", False))
                stmt = []
            elif c == "}":
                if len(stack) > 1:
                    stack.pop()
                stmt = []
            elif c == ";":
                self.record("".join(stmt), stack)
                stmt = []
            elif c == ":" and kind == "class":
                label = "".join(stmt).strip()
                if label in ("public", "private", "protected"):
                    stack[-1] = (kind, stack[-1][1], label == "public")
                    stmt = []
                else:
                    stmt.append(c)
            else:
                stmt.append(c)
            i += 1
        return self

    def record(self, text, stack):
        if "=" in text.split("(")[0]:
            self.body.append(text)
            return
        name = declared_name(text)
        if name is None:
            return
        # Parameter defaults and member initializer lists are uses.
        self.body.append(text[text.index("(") + 1:])
        classes = [s[1] for s in stack if s[0] == "class"]
        if any(not s[2] for s in stack if s[0] == "class"):
            return
        if classes and name == classes[-1]:
            return  # constructor
        if re.search(r"=\s*(delete|default)\s*$", text):
            return
        self.declared.add("::".join(classes + [name]))


def source_files(dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(SOURCE_EXT):
                    yield os.path.join(base, f)


def test_only_names():
    declared = set()
    for path in source_files(["src"]):
        if path.endswith(".h"):
            declared |= Scanner(path).scan().declared
    used = set()
    for path in source_files(USE_DIRS):
        for chunk in Scanner(path).scan().body:
            used.update(IDENT.findall(chunk))
    return sorted(q for q in declared if q.split("::")[-1] not in used)


def ledger_names(path):
    names, in_ledger = set(), False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                in_ledger = LEDGER_HEADING in line
            elif in_ledger:
                m = re.match(r"- `([\w:]+)` — \S", line)
                if m:
                    names.add(m.group(1))
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ledger", help="check against this file's ledger")
    args = parser.parse_args()
    names = test_only_names()
    if not args.ledger:
        print("\n".join(names))
        return 0
    listed = ledger_names(args.ledger)
    problems = ["unlisted: " + q for q in names if q not in listed]
    problems += ["stale: " + q for q in sorted(listed - set(names))]
    if problems:
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
