"""sonic_etl_ray — a Ray-Data-native CDC / incremental-ingest engine.

A from-scratch re-expression of the capabilities of blockchain-etl/sonic-etl
(reference at /root/reference, snapshot 2025-05-23) on Ray Data:

- an ordered change-event stream (the reference's block stream,
  ``indexing_coordinator/publish_ranges.py:214-248``) read as Parquet segments;
- typed decode/transform stages as zero-copy Arrow ``map_batches``
  (the ``transformation/common.rs`` transform family);
- key-partitioned, exactly-once upserts into a partitioned Parquet lake via
  one merge task per hash partition (the inline version of the reference's
  daily MERGE dedupe, ``daily_qc_airflow/daily_dedupe_mainnet.py:65-81``);
- per-partition LSN watermarks, an idempotent commit log and lineage records
  (the reference's ack boundary + resumption topic + ``indexed_blocks/``,
  ``extractor_transformer/src/main.rs:188-241``);
- QC jobs: gap detection, row-count invariants, freshness
  (``daily_qc_airflow/{daily_backfill_mainnet,row_counts,mainnet_hourly_block_check}.py``).

Everything here builds only on public APIs: ray[data], pyarrow, pandas, numpy.
No module in this package calls ``ray.init()``/``ray.shutdown()`` — sessions are
owned by bench.py / CLI / test fixtures.
"""

__version__ = "0.1.0"
