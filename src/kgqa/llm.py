"""LLM backend port: prompt templates, scripted replay backend, HTTP backend.

Two temperature presets exist, and each template names its own:
exploratory templates (decomposition and key extraction) run at
``exploration_temperature``, the rest (answer, verify, rethink) at
``reasoning_temperature``. Every role sends its prompt through ``ask``.
The scripted backend records every request it serves, so tests can assert
on the exact call sequence and temperatures.

Calls whose prompts are all known up front (one mind-map level's
decompositions, the two key extractions) are sent together by
``fan_out``, on one shared pool of ``FAN_OUT_THREADS`` threads; each call
keeps warnings of its own, merged in item order as one loop would leave
them.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import re
import string
import sys
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol, TypeVar

from .config import PipelineConfig
from .inputs import parse_records, read_lines

if TYPE_CHECKING:
    import requests

ENV_LLM_URL = "COGGRAG_LLM_URL"
ENV_LLM_KEY = "COGGRAG_LLM_KEY"

# Threads of the pool ``fan_out`` shares between all questions; with the
# calling thread, at most this many plus one calls of one fan-out are in
# flight.
FAN_OUT_THREADS = 8

_T = TypeVar("_T")
_R = TypeVar("_R")


class PromptBindingError(KeyError):
    """A template slot was left unbound at render time."""


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt: its head, its instruction and a tail with the
    ``${slot}`` holes, joined by blank lines into ``body``.

    ``exploratory`` templates are sent at the exploration temperature.
    """

    name: str
    head: str
    instruction: str
    tail: str
    exploratory: bool = False

    @functools.cached_property
    def body(self) -> str:
        return f"{self.head}\n\n{self.instruction}\n\n{self.tail}"

    def render(self, **bindings: str) -> str:
        try:
            return string.Template(self.body).substitute(bindings)
        except KeyError as exc:
            raise PromptBindingError(
                f"template '{self.name}' missing binding for slot '{exc.args[0]}'"
            ) from None


DEC_TEMPLATE = PromptTemplate(
    name="dec",
    exploratory=True,
    head=(
        "Your task is to decompose the given question Q into sub-questions. "
        "You should based on the specific logic of the question to determine "
        "the number of sub-questions and output them sequentially."
    ),
    instruction=(
        "Please only output the decomposed sub-questions as a string in list format, "
        "where each element represents the text of a sub-question, in the form of "
        '{["subq1", "subq2", "subq3"]}. For each sub-question, if you consider the '
        "sub-question to be sufficiently simple and no further decomposition is needed, "
        'then output "End.", otherwise, output "Continue." Please strictly follow the '
        "format of the example below when answering the question.\n"
        "Here are some examples:"
    ),
    tail="""Input: "What year did Guns N Roses perform a promo for a movie starring Arnold Schwarzenegger as a former New York Police detective?"
Output: [
    {"Sub-question": "What movie starring Arnold Schwarzenegger as a former New York Police detective is being referred to?", "State": "Continue."},
    {"Sub-question": "In what year did Guns N Roses perform a promo for the movie mentioned in sub-question #1?", "State": "End."}
]

Input: "What is the name of the fight song of the university whose main campus is in Lawrence, Kansas and whose branch campuses are in the Kansas City metropolitan area?"
Output: [
    {"Sub-question": "Which university has its main campus in Lawrence, Kansas and branch campuses in the Kansas City metropolitan area?", "State": "End."},
    {"Sub-question": "What is the name of the fight song of the university identified in sub-question #1?", "State": "End."}
]

Input: "Are the Laleli Mosque and Esma Sultan Mansion located in the same neighborhood?"
Output: [
    {"Sub-question": "Where is the Laleli Mosque located?", "State": "End."},
    {"Sub-question": "Where is the Esma Sultan Mansion located?", "State": "End."},
    {"Sub-question": "Are the locations of the Laleli Mosque and the Esma Sultan Mansion in the same neighborhood?", "State": "End."}
]

Input: ${question}
Output:""",
)

EXT_LOCAL_TEMPLATE = PromptTemplate(
    name="ext_local",
    exploratory=True,
    head=(
        "Your task is to extract the entities (such as people, places, organizations, "
        "etc.) and relations (representing behaviors or properties between entities, "
        "such as verbs, attributes, or categories, etc.) involved in the input "
        "questions. These entities and relations can help answer the input questions."
    ),
    instruction=(
        "Please extract entities and relations in one of the following forms: entity, "
        "tuples, or triples from the given input List. Entity means that only an "
        "entity, i.e. <entity>. Tuples means that an entity and a relation, i.e. "
        "<entity-relation>. Triples means that complete triples, i.e. "
        "<entity-relation-entity>. Please strictly follow the format of the example "
        "below when answering the question."
    ),
    tail="Input: ${mind_map}\nOutput:",
)

EXT_GLOBAL_TEMPLATE = PromptTemplate(
    name="ext_global",
    exploratory=True,
    head="Your task is to extract the subgraphs involved in a set of input questions.",
    instruction=(
        "Please extract and organize information from a set of input questions into "
        "structured subgraphs. Each subgraph represents a group of triples (subject, "
        "relation, object) that share common entities and capture the logical "
        "relationships between the questions. Here are some examples:"
    ),
    tail="""Input: ["What is the capital of France?", "Who is the president of France?", "What is the population of Paris?"]
Output: [("France", "capital", "Paris"), ("France", "president", "Current President"), ("Paris", "population", "Population Number")]

Input: ${mind_map}
Output:""",
)

_BRACKET_INSTRUCTION = "Please note that the response must be included in square brackets [xxx]."
_REASONING_CONTEXT = "The completed reasoning: ${reasoning}\n\nThe knowledge graph: ${knowledge}\n\n"

RES_TEMPLATE = PromptTemplate(
    name="res",
    head=(
        "Your task is to answer the questions with the provided completed reasoning "
        "and input knowledge."
    ),
    instruction=_BRACKET_INSTRUCTION,
    tail=_REASONING_CONTEXT + "Input: ${question}\nOutput:",
)

VER_TEMPLATE = PromptTemplate(
    name="ver",
    head=(
        "You are a logical verification assistant. Your task is to check whether the "
        "answer to a given question is logically consistent with the provided "
        "completed reasoning and input knowledge. If the answer is consistent, "
        'respond with "right". If the answer is inconsistent, respond with "wrong".'
    ),
    instruction=_BRACKET_INSTRUCTION,
    tail=_REASONING_CONTEXT + "Answer: ${answer}\n\nInput: ${question}\nOutput:",
)

RETHINK_TEMPLATE = PromptTemplate(
    name="rethink",
    head=(
        "You are a reasoning and knowledge integration assistant. Your task is to "
        "re-think a question that was previously answered incorrectly by the "
        "self-verification model. Use the provided completed reasoning and input "
        "knowledge to generate a new answer."
    ),
    instruction=(
        'Please note, if the knowledge is insufficient to answer the question, respond '
        'with "Insufficient information, I don\'t know". The response must be included '
        "in square brackets [xxx]."
    ),
    tail=_REASONING_CONTEXT + "Input: ${question}\nOutput:",
)

TEMPLATES: dict[str, PromptTemplate] = {
    t.name: t
    for t in (
        DEC_TEMPLATE,
        EXT_LOCAL_TEMPLATE,
        EXT_GLOBAL_TEMPLATE,
        RES_TEMPLATE,
        VER_TEMPLATE,
        RETHINK_TEMPLATE,
    )
}


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    temperature: float
    max_tokens: int

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


class BackendError(RuntimeError):
    """A backend failed to produce a completion."""


class ScriptMissError(BackendError):
    """No scripted rule matched the prompt."""


class LLMBackend(Protocol):
    """A backend offers ``generate(request)``, returning the reply text; the
    type is structural, and nothing checks it at run time.

    ``generate`` must be thread-safe: one ``fan_out`` may call it from
    several threads at once. A backend may also declare the class attribute
    ``sequential = True``; ``fan_out`` then makes its calls one at a time,
    in item order, on the calling thread. That suits a backend that answers
    in-process, where there is no wait to overlap and the order of calls
    it records stays the order the pipeline issues them. A backend without
    it that is seen to answer without releasing the interpreter lock gets
    the same treatment while its calls stay that quick (see ``fan_out``).
    """

    def generate(self, request: GenerationRequest) -> str: ...


# The shared pool; an executor starts no thread before its first job.
_pool = ThreadPoolExecutor(FAN_OUT_THREADS, thread_name_prefix="kgqa-fan-out")

# Backends, by id, seen to hold the interpreter lock for a whole call, as an
# in-process stub does: handing their calls to threads only adds hand-offs,
# so their later fan-outs run in item order on the calling thread. The sign
# is a fan-out whose first call took less than the switch interval while no
# pool thread started a job: a thread waiting for the lock takes it at the
# latest after that interval, unless it was busy with other jobs; a backend
# mistaken for one this way answered within the interval, so little overlap
# is lost. A remembered backend is forgotten once one of its calls takes the
# interval or longer: such a call may have waited with the lock released.
_instant: "weakref.WeakValueDictionary[int, LLMBackend]" = weakref.WeakValueDictionary()


def fan_out(
    backend: LLMBackend,
    fn: Callable[[_T, list[str]], _R],
    items: Iterable[_T],
    warnings: Optional[list[str]],
) -> list[_R]:
    """``[fn(item, job_warnings) for item in items]``, with the calls
    overlapped; each job appends to a warnings list of its own.

    The first item runs on the calling thread and the rest are handed to
    the shared pool, unless ``backend`` is ``sequential`` or there is one
    item. Once its own item is done, the calling thread runs, in item
    order, every job no pool thread has started yet. If that was every job
    and the first took less than the switch interval, the backend answers
    without releasing the interpreter lock, and its later fan-outs run in
    item order on the calling thread, until one of its calls takes at least
    the switch interval. Returns or raises only after every started job has
    finished; a failure raises the first failing job's exception in item
    order, and jobs after it that have not started never run. The jobs'
    warnings are then appended to ``warnings`` (unless it is None) in item
    order, up to and including the first failing job's: what one loop over
    the items appending to ``warnings`` would leave.

    A job must never call ``fan_out`` itself: its inner jobs could wait for
    pool threads held by outer jobs, and the shared pool would deadlock.
    """
    items = list(items)
    logs: list[list[str]] = [[] for _ in items]
    results: list[_R] = []
    futures: list[Future] = []
    try:
        remembered = _instant.get(id(backend)) is backend
        if len(items) < 2 or getattr(backend, "sequential", False) or remembered:
            for item, log in zip(items, logs):
                start = time.perf_counter()
                results.append(fn(item, log))
                if remembered and time.perf_counter() - start >= sys.getswitchinterval():
                    _instant.pop(id(backend), None)
            return results
        for item, log in zip(items[1:], logs[1:]):
            futures.append(_pool.submit(fn, item, log))
        start = time.perf_counter()
        results.append(fn(items[0], logs[0]))
        first_s = time.perf_counter() - start
        pooled = False
        for item, log, future in zip(items[1:], logs[1:], futures):
            if future.cancel():
                results.append(fn(item, log))
            else:
                pooled = True
                results.append(future.result())
        if not pooled and first_s < sys.getswitchinterval():
            # A backend that cannot be weakly referenced is not remembered.
            with contextlib.suppress(TypeError):
                _instant[id(backend)] = backend
        return results
    finally:
        # A cancelled job counts as done only once a pool thread dequeues it,
        # so wait for the started jobs alone.
        wait([future for future in futures if not future.cancel()])
        # Results are collected in item order, so the first job without one
        # is the one that failed.
        if warnings is not None:
            for log in logs[: len(results) + 1]:
                warnings.extend(log)


def ask(backend: LLMBackend, template: PromptTemplate, cfg: PipelineConfig, **bindings: str) -> str:
    """Render ``template``, send it at its role's temperature with
    ``cfg.max_tokens``, and return the reply, which must be a string."""
    temperature = cfg.exploration_temperature if template.exploratory else cfg.reasoning_temperature
    reply = backend.generate(GenerationRequest(template.render(**bindings), temperature, cfg.max_tokens))
    if not isinstance(reply, str):
        raise BackendError(f"template '{template.name}' got a {type(reply).__name__} reply, not a string")
    return reply


def infer_template_name(prompt: str) -> str:
    """Best-effort template identification from a rendered prompt's head."""
    for name, template in TEMPLATES.items():
        if template.head in prompt:
            return name
    return "unknown"


@dataclass(frozen=True)
class ScriptRule:
    """An ordered matching rule: all substrings (or the regex) must hit."""

    reply: str
    patterns: tuple[str, ...] = ()
    regex: Optional[str] = None

    def matches(self, prompt: str) -> bool:
        if self.regex is not None:
            if not re.search(self.regex, prompt, re.DOTALL):
                return False
        return all(p in prompt for p in self.patterns)


class ScriptedBackend:
    """Deterministic backend that replays canned rules, first match wins.

    Every request served is appended to ``records`` so tests can audit the
    full call sequence. It is ``sequential``: replies come in-process, so
    there is nothing to overlap, and ``records`` keeps the pipeline's order.
    """

    sequential = True

    def __init__(self, rules: list[ScriptRule]):
        self.rules = list(rules)
        self.records: list[GenerationRequest] = []
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> str:
        with self._lock:
            self.records.append(request)
        for rule in self.rules:
            if rule.matches(request.prompt):
                return rule.reply
        raise ScriptMissError(
            f"no scripted reply for '{infer_template_name(request.prompt)}' prompt"
        )


def _parse_rule(line: str) -> ScriptRule:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict) or "reply" not in record:
        raise ValueError("record must have a 'reply'")
    match = record.get("match")
    if match is None:
        patterns: tuple[str, ...] = ()
    elif isinstance(match, str):
        patterns = (match,)
    elif isinstance(match, list) and all(isinstance(m, str) for m in match):
        patterns = tuple(match)
    else:
        raise ValueError("'match' must be a string or list of strings")
    regex = record.get("regex")
    if regex is not None:
        if not isinstance(regex, str):
            raise ValueError("'regex' must be a string")
        try:
            re.compile(regex)
        except (re.error, OverflowError) as exc:
            raise ValueError(f"invalid regex: {exc}") from exc
    if not patterns and regex is None:
        raise ValueError("record needs 'match' or 'regex'")
    return ScriptRule(reply=str(record["reply"]), patterns=patterns, regex=regex)


def parse_script(lines: "Iterable[str]", source: str = "<script>") -> list[ScriptRule]:
    """Parse a line-delimited script: each record {match | regex, reply}."""
    return parse_records(lines, source, _parse_rule)


def load_script(path: str) -> ScriptedBackend:
    return ScriptedBackend(parse_script(read_lines(path), source=path))


# Seconds ``HTTPBackend`` waits after its first transient fault; each later
# wait doubles, up to the cap, and a random part of it (jitter) keeps
# clients that failed together from retrying together.
RETRY_BASE_S = 0.5
RETRY_CAP_S = 8.0


def _retry_delay(attempt: int) -> float:
    """Seconds to sleep after failed attempt ``attempt`` (0 for the first):
    between half and all of ``RETRY_BASE_S * 2 ** attempt``, capped at
    ``RETRY_CAP_S``."""
    # The exponent is bounded so that no max_retries overflows a float.
    ceiling = min(RETRY_CAP_S, RETRY_BASE_S * 2.0 ** min(attempt, 64))
    return ceiling / 2 + random.uniform(0.0, ceiling / 2)


class HTTPBackend:
    """Chat-completion backend over HTTP.

    Up to ``max_retries`` attempts are made while the fault may be
    transient: a timeout, a connection error, a 429 or a 5xx status, with
    a ``_retry_delay`` sleep between two attempts. Any other 4xx status, or
    a reply without a completion, fails at once. Each thread keeps one
    ``requests.Session``, so that its calls reuse a connection: ``fan_out``
    calls ``generate`` from pool threads, and a session is not safe to share
    between threads.

    ``requests`` is imported when an instance is built, not when
    this module loads, so a process that answers in-process never loads
    the HTTP stack; importing on the constructing thread keeps the first
    import off ``fan_out``'s pool threads.
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        model: str = "default",
        max_retries: int = 3,
        timeout: float = 120.0,
    ):
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.base_url = base_url
        self.api_key = api_key
        self.model = model
        self.max_retries = max_retries
        self.timeout = timeout
        self._local = threading.local()
        import requests

        self._requests = requests

    def _session(self) -> requests.Session:
        """This thread's session, opened on its first call."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = self._requests.Session()
        return session

    @classmethod
    def from_env(cls, model: str = "default") -> "HTTPBackend":
        url = os.environ.get(ENV_LLM_URL)
        if not url:
            raise BackendError(f"{ENV_LLM_URL} is not set; no HTTP backend available")
        return cls(base_url=url, api_key=os.environ.get(ENV_LLM_KEY), model=model)

    def generate(self, request: GenerationRequest) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        requests = self._requests
        session = self._session()
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(_retry_delay(attempt - 1))
            try:
                response = session.post(
                    self.base_url, json=payload, headers=headers, timeout=self.timeout
                )
                response.raise_for_status()
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = exc
                continue
            except requests.HTTPError as exc:
                status = exc.response.status_code if exc.response is not None else 0
                if status == 429 or status >= 500:
                    last_error = exc
                    continue
                raise BackendError(f"HTTP backend request rejected: {exc}") from exc
            except requests.RequestException as exc:
                raise BackendError(f"HTTP backend request failed: {exc}") from exc
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise BackendError(f"HTTP backend reply has no completion: {exc!r}") from exc
            if not isinstance(content, str):
                raise BackendError(f"HTTP backend reply has no completion: content is {content!r}")
            return content
        raise BackendError(f"HTTP backend failed after {self.max_retries} attempts: {last_error}")


_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")


def extract_bracketed(text: str) -> Optional[str]:
    """Content of the first well-formed ``[...]`` span, trimmed; None if absent."""
    match = _BRACKET_RE.search(text)
    if match is None:
        return None
    return match.group(1).strip()
