"""drillvol benchmark harness: inputs, tracer, checks, workloads, metrics."""
