"""Privacy-restricted context elicitation and small-model scoring for multiple-choice QA.

The pipeline never shows a question to the remote LLM. It discloses extracted
keywords plus the candidate answers, asks for an overall context, one specific
context per candidate, and a preliminary decision, then trains a small scorer
on the parsed contexts.
"""

__version__ = "0.1.0"
