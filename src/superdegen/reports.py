"""Uniform run reports for the command line: per-item verdicts, counts,
exit code 0 exactly when nothing failed (undetermined and unsupported
items do not fail a run), 2 when some input could not be read.  Output is
deterministic; wall-clock time is carried on the object but only rendered
on request, together with the Python version and the arithmetic backend the
run used."""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"
UNSUPPORTED = "unsupported"
ERROR = "error"  # an input that could not be read; the run goes on with the others

# the one arithmetic backend: Cyclo8 over Python ints
BACKEND = "python-int"


@dataclass
class RunReport:
    command: str
    items: list = field(default_factory=list)
    elapsed: float | None = None

    def add(self, name: str, status: str, detail: str = ""):
        self.items.append({"name": name, "status": status, "detail": detail})

    @property
    def counts(self):
        out = {}
        for it in self.items:
            out[it["status"]] = out.get(it["status"], 0) + 1
        return out

    @property
    def exit_code(self) -> int:
        statuses = {it["status"] for it in self.items}
        return 2 if ERROR in statuses else 1 if FAIL in statuses else 0

    def to_json(self, with_timing=False) -> str:
        payload = {
            "command": self.command,
            "items": self.items,
            "counts": self.counts,
            "exit_code": self.exit_code,
        }
        if with_timing:
            if self.elapsed is not None:
                payload["elapsed_seconds"] = round(self.elapsed, 3)
            payload["python"] = platform.python_version()
            payload["backend"] = BACKEND
        return json.dumps(payload, indent=1)

    def to_text(self, with_timing=False) -> str:
        lines = []
        width = max((len(it["name"]) for it in self.items), default=0)
        for it in self.items:
            line = f"{it['status'].upper():>12}  {it['name']:<{width}}"
            if it["detail"]:
                line += f"  {it['detail']}"
            lines.append(line.rstrip())
        summary = ", ".join(f"{v} {k}" for k, v in sorted(self.counts.items()))
        lines.append(f"[{self.command}] {summary or 'nothing to do'}; exit {self.exit_code}")
        if with_timing:
            if self.elapsed is not None:
                lines.append(f"elapsed: {self.elapsed:.2f}s")
            lines.append(f"python {platform.python_version()}, backend {BACKEND}")
        return "\n".join(lines) + "\n"
