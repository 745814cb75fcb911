"""Set up paths and environment exactly as ``perfbench/run.py`` does."""
from perfbench.run import bootstrap

bootstrap()
