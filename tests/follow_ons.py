"""Check the golden `malformed` error lists against the lists of an earlier
pin that still reported follow-on errors.

Usage:

    git show <commit>:tests/golden_hashes.json > old.json
    PYTHONPATH=src python tests/follow_ons.py old.json

A follow-on error is one that a validation rule reported on a stand-in: the
value that the parse put in place of one that failed its check (a type
error, a missing key, an unknown kind). The rule reported it on that value's
path or below it, or it compares the value with another field. Each earlier
list, with its follow-on errors taken out, must be the list that this
checkout computes for the case. The script prints how many lists and errors
that takes out, and exits 1 on the first case that differs.

It states the rules on its own, and does not call the parser. It reads them
from the error lists alone, but for the two rules that compare records:
a duplicate id, which follows on iff no earlier entry of the document's list
holds that id as a string (the stand-in of an id that failed its check is
None, which equals no id), and the elastic objects' shared target, which
compares only the targets in (0, 1]. For those it reads the case's
document.
"""

import ast
import json
import re
import sys
from pathlib import Path

from test_golden import MALFORMED_CASES, config_errors, malformed_doc

# the errors after which the parse goes on with a stand-in
_FAILED = re.compile(r"must be an integer|must be a number|must be a string"
                     r"|must be a boolean|must be a list of object ids"
                     r"|must be an integer or an object id map|missing"
                     r"|must be an object|unknown \w+ kind .*"
                     r"|must be 'classical' or 'multiversion', got .*")


def _fields_read(path: str, message: str) -> list[str]:
    """The paths that the rule behind the error reads besides its own, as
    regular expressions."""
    record = re.escape(path[:path.find("]") + 1])
    if message in ("update cost must be <= update period",
                   "max_period must be >= period"):
        return [record + r"\.period"]
    if message in ("retrieval time must be > 0 for source acquisition",
                   "retrieval time must be >= 0"):
        return [record + r"\.retrieval_mode"]
    if message == "object is not in the read set":
        return [record + r"\.read_set"]
    if (m := re.fullmatch(r"missing (retrieval|analysis) time for '(.*)'", message)):
        return [re.escape(f"{path}[{m.group(2)}]")]
    if message.startswith("m <= k violated"):
        return [re.escape(path) + r"\.[mk]"]
    return []


def _records(doc: dict, key: str) -> list[dict]:
    items = doc.get(key)
    return [d for d in items if isinstance(d, dict)] if isinstance(items, list) else []


def _compared_a_stand_in(doc: dict, path: str, message: str) -> bool:
    """Whether the error is one of a rule that compares records, and that
    rule compared a stand-in."""
    if message == "elastic objects must share one target_utilization":
        # a stand-in target is 0.0, outside (0, 1]
        targets = {t for d in _records(doc, "objects")
                   if isinstance(p := d.get("policy"), dict) and p.get("kind") == "elastic"
                   and isinstance(t := p.get("target_utilization"), (int, float))
                   and not isinstance(t, bool) and 0 < t <= 1}
        return len(targets) < 2
    if (m := re.fullmatch(r"duplicate (object|transaction) id (.*)", message)) \
            and (at := re.fullmatch(r"(\w+)\[(\d+)\]\.id", path)):
        # paths number the entries of the document's list, objects or not
        oid = ast.literal_eval(m.group(2))
        return not any(isinstance(d, dict) and d.get("id") == oid
                       for d in doc[at.group(1)][:int(at.group(2))])
    return False


def without_follow_ons(errors: list[str], doc: dict) -> list[str]:
    """`errors` ("path: message" strings) of the document `doc` without
    their follow-on errors."""
    failed = []
    kept = []
    for error in errors:
        path, message = error.split(": ", 1)
        below = any(path == f or path.startswith((f + ".", f + "[")) for f in failed)
        compared = any(re.fullmatch(pattern, f) for pattern in _fields_read(path, message)
                       for f in failed)
        if not (below or compared or _compared_a_stand_in(doc, path, message)):
            kept.append(error)
        if _FAILED.fullmatch(message):
            failed.append(path)
    return kept


def main(old_path: str) -> int:
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))["malformed"]
    assert len(old) == MALFORMED_CASES
    lists = errors = 0
    for case, pinned in enumerate(old):
        doc = malformed_doc(case)
        expected = without_follow_ons(pinned, doc)
        computed = config_errors(doc)
        if computed != expected:
            print(f"case {case}: computed {computed}, expected {expected}")
            return 1
        if len(expected) < len(pinned):
            lists += 1
            errors += len(pinned) - len(expected)
    print(f"{lists} of {len(old)} lists lose {errors} follow-on errors; "
          "every other list is unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
