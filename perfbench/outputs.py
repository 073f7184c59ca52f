"""Parsing CLI outputs by field name and comparing them with pinned values.

An operation's output is kept as three lists of {field: text} records:

- ``stdout``: one record per stdout line of ``key=value`` tokens;
- ``csv``: one record per data row of the ``--out`` CSV, keyed by header;
- ``footer``: one record per ``# key=value ...`` comment line of the CSV.

Numbers are compared as written (the CLI prints 17 significant digits, so
text equality is float equality).  A pinned comparison looks only at the
fields the pinned record has, so fields added later are ignored, while a
changed value, a removed field or a changed record count is a mismatch.
"""

from __future__ import annotations

import csv
import io


def _pairs(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def parse(stdout_text: str, csv_text: str | None) -> dict:
    out = {"stdout": [_pairs(l) for l in stdout_text.splitlines() if l.strip()], "csv": [], "footer": []}
    if csv_text:
        lines = csv_text.splitlines()
        out["footer"] = [_pairs(l.lstrip("# ")) for l in lines if l.startswith("#")]
        out["csv"] = [dict(r) for r in csv.DictReader(io.StringIO("\n".join(l for l in lines if not l.startswith("#"))))]
    return out


def mismatches(pinned: dict, got: dict) -> list[str]:
    """Differences between pinned fields and the same fields of got."""
    problems = []
    for part, records in pinned.items():
        have = got.get(part, [])
        if len(have) != len(records):
            problems.append(f"{part}: {len(have)} records, pinned {len(records)}")
            continue
        for i, (want, rec) in enumerate(zip(records, have)):
            for key, value in want.items():
                if key not in rec:
                    problems.append(f"{part}[{i}].{key}: missing, pinned {value}")
                elif rec[key] != value:
                    problems.append(f"{part}[{i}].{key}: {rec[key]}, pinned {value}")
    return problems
