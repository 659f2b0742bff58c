"""Batch-transform stages: map_batches UDFs run as plain tasks (no actor pools)."""
