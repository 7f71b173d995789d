"""Knowledge-graph question answering with mind-map decomposition,
threshold-filtered triple retrieval, and self-verifying reasoning."""

from .embedding import CachingEmbedder, HashedEmbedder, cosine_sim
from .evaluation import categorize, exact_match, f1, load_dataset, rouge_l, run_benchmark
from .kg_store import KnowledgeGraph, Triple, load_graph, load_graph_file
from .llm import HTTPBackend, ScriptedBackend, load_script
from .mindmap import MindMap, build_mind_map, bottom_up_order
from .pipeline import Backends, PipelineConfig, PipelineResult, run_pipeline
from .reasoning import ReasoningTrace, detect_abstention, solve
from .retrieval import CandidateRows, RetrievedTripleSet, filter_by_similarity, gather_candidates

__version__ = "0.1.0"

__all__ = [
    "Backends",
    "CachingEmbedder",
    "CandidateRows",
    "HTTPBackend",
    "HashedEmbedder",
    "KnowledgeGraph",
    "MindMap",
    "PipelineConfig",
    "PipelineResult",
    "ReasoningTrace",
    "RetrievedTripleSet",
    "ScriptedBackend",
    "Triple",
    "bottom_up_order",
    "build_mind_map",
    "categorize",
    "cosine_sim",
    "detect_abstention",
    "exact_match",
    "f1",
    "filter_by_similarity",
    "gather_candidates",
    "load_dataset",
    "load_graph",
    "load_graph_file",
    "load_script",
    "rouge_l",
    "run_benchmark",
    "run_pipeline",
    "solve",
]
