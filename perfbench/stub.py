"""Localhost chat-completions stub for the ``live`` workload (stdlib only).

Serves POST requests in the OpenAI chat format with a fixed 20 ms latency.
Replies follow the generated script: for each (question, kind) whether the
answer is right and how it is decorated, and, by request arrival order,
which requests get a 429 or 503 (always recoverable within two retries) and
which reply slowly (still far inside the client timeout). GET /stats returns
the request count, the faults served and the largest number of requests in
flight.

    python3 perfbench/stub.py --inputs DIR

prints ``PORT <n>`` once listening on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

NOTA_TEXT = "None of the Above"
LATENCY_S = 0.020
SLOW_EXTRA_S = 0.25
_QID_RE = re.compile(r"q\d{5}")
_OPTION_RE = re.compile(r"^([A-H])\. (.*)$")

_STYLES = (
    "Checking each option against the statements.\n\n{answer}",
    "Working through the options one at a time.\n**Answer:**\n**{answer}**",
    "Having weighed every option,\nthe selection is\n{joined}",
    "Final answer:\n{answer}",
)


def load_truth(inputs: str) -> tuple[dict, dict, dict]:
    with open(os.path.join(inputs, "stub_script.json"), encoding="utf-8") as fh:
        script = json.load(fh)
    with open(os.path.join(inputs, "atomic.json"), encoding="utf-8") as fh:
        answer_text = {q["id"]: q["options"][q["answer"]] for q in json.load(fh)["questions"]}
    with open(os.path.join(inputs, "comb.json"), encoding="utf-8") as fh:
        comb_gold = {q["source_id"]: sorted(q["answer_set"]) for q in json.load(fh)["questions"]}
    return script, answer_text, comb_gold


def intended_letters(user_text: str, script: dict, answer_text: dict, comb_gold: dict) -> tuple[list[str], int]:
    """The letters the script wants sent for this prompt, and the decoration style."""
    qid = _QID_RE.search(user_text).group(0)
    options = [m.groups() for m in map(_OPTION_RE.match, user_text.splitlines()) if m]
    letters = [letter for letter, _ in options]
    if "\nStatements:\n" in user_text:
        kind, gold = "comb", list(comb_gold[qid])
    else:
        kind = "atomic"
        gold = [letter for letter, text in options if text in (answer_text[qid], NOTA_TEXT)]
    plan = script["replies"][f"{qid}|{kind}"]
    if plan["correct"]:
        return gold, plan["style"]
    if len(gold) > 1:
        return gold[1:], plan["style"]
    others = [letter for letter in letters if letter not in gold]
    return ([others[plan["style"] % len(others)]] if kind == "atomic" else sorted(gold + others[:1])), plan["style"]


class StubState:
    def __init__(self, inputs: str) -> None:
        self.script, self.answer_text, self.comb_gold = load_truth(inputs)
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.slow = 0
        self.inflight = 0
        self.max_inflight = 0


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:  # keep the benchmark's output clean
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            with state.lock:
                stats = {"requests": state.requests, "errors": state.errors, "slow": state.slow,
                         "max_inflight": state.max_inflight}
            self._send(200, stats)

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length))
            with state.lock:
                arrival = state.requests
                state.requests += 1
                state.inflight += 1
                state.max_inflight = max(state.max_inflight, state.inflight)
            try:
                action = state.script["faults"].get(str(arrival))
                time.sleep(LATENCY_S)
                if action in ("429", "503"):
                    with state.lock:
                        state.errors += 1
                    self._send(int(action), {"error": {"message": "transient", "code": int(action)}})
                    return
                if action == "slow":
                    with state.lock:
                        state.slow += 1
                    time.sleep(SLOW_EXTRA_S)
                user_text = request["messages"][-1]["content"]
                letters, style = intended_letters(user_text, state.script, state.answer_text, state.comb_gold)
                content = _STYLES[style].format(answer=", ".join(letters), joined="".join(letters))
                self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})
            finally:
                with state.lock:
                    state.inflight -= 1

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args()
    state = StubState(args.inputs)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
