"""The planner benchmark (``python3 perfbench/run.py``)."""
