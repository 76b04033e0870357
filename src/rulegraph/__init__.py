"""Rule-driven task-graph orchestration over pluggable LLM agent roles."""

__version__ = "0.1.0"
