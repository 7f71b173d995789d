"""What a process loads: the HTTP stack only once an HTTP backend is built.

Each check runs in a fresh interpreter, since this test process has long
since imported ``requests`` itself.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import kgqa

from conftest import BECKHAM_ANSWER, BECKHAM_QUESTION, FIXTURES

# Runs the steps in order and prints, per step, whether ``requests`` was
# loaded after it, and what it printed or raised.
_STEPS = """
import contextlib, io, json, sys

def loaded():
    return "requests" in sys.modules

report = {}
import kgqa
report["import kgqa"] = loaded()

from kgqa.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["ask", "--graph", GRAPH, "--question", QUESTION, "--script", SCRIPT])
report["kgqa ask --script"] = [loaded(), code, out.getvalue().strip()]

from kgqa.llm import BackendError, HTTPBackend
before = set(sys.modules)
try:
    HTTPBackend.from_env()
    raised = None
except BackendError as exc:
    raised = str(exc)
report["from_env without a URL"] = [loaded(), raised, sorted(set(sys.modules) - before)]

HTTPBackend("http://127.0.0.1:9")
report["HTTPBackend(url)"] = loaded()
print(json.dumps(report, ensure_ascii=False))
"""


def _run_steps() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COGGRAG_")}
    src = str(Path(kgqa.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    prelude = (
        f"GRAPH = {str(FIXTURES / 'beckham_graph.tsv')!r}\n"
        f"SCRIPT = {str(FIXTURES / 'beckham_script.jsonl')!r}\n"
        f"QUESTION = {BECKHAM_QUESTION!r}\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", prelude + _STEPS],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_http_stack_loads_only_with_an_http_backend():
    assert _run_steps() == {
        "import kgqa": False,
        "kgqa ask --script": [False, 0, BECKHAM_ANSWER],
        "from_env without a URL": [
            False,
            "COGGRAG_LLM_URL is not set; no HTTP backend available",
            [],
        ],
        "HTTPBackend(url)": True,
    }
