"""A job that does nothing, so that an executor's own cost is what is left.

``layers.probe_executors`` plans jobs of kind ``noop_job:run``; workers
resolve the kind by import, which is why this directory is on
``PYTHONPATH`` for every process the benchmark starts.
"""


def run(job):
    return job.seed
