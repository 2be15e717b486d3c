// Package sweep is the persistent, resumable and shardable layer over the
// batch engine. It provides five building blocks:
//
//   - Store: an append-only JSONL checkpoint of completed cells. Every
//     engine.CellResult streams to disk as its worker finishes, and on
//     restart the completed-cell set is loaded so only the missing cells
//     re-run — with tables byte-identical to an uninterrupted run. See
//     FORMAT.md in this directory for the on-disk record and lease formats.
//   - Run: engine.Run behind the store — restored and fresh results are
//     streamed interleaved in deterministic cell order.
//   - RunAdaptive: adaptive seed scheduling on top of Run — each cell group
//     keeps receiving seed replicas until the 95% confidence interval
//     half-width of its metric is tight enough, or a cap is reached.
//   - RunSharded: multi-process (or multi-host) sweeps, the only way to
//     split one sweep across processes. Each worker claims cell groups
//     through the store's Backend — lease files in the sweep directory
//     (atomic link with owner id and expiry timestamp) or gatherd's lease
//     table (netbackend) when hosts share no filesystem — heartbeats its
//     lease while running, skips groups completed in the store or freshly
//     leased by peers, and reclaims expired leases so a killed worker's
//     cells are re-run. Cooperating workers drain the sweep and every one of
//     them returns the complete result set, byte-identical to a
//     single-process run.
//   - RunAdaptiveSharded: RunAdaptive across a cooperating fleet. The
//     adaptive trajectory of a cell group is a deterministic function of its
//     stored per-replica results, so any worker can claim a group, run its
//     next seed block, and re-evaluate the stopping rule against the merged
//     cross-worker history; per-group adaptive-state records (seeds
//     consumed, CI half-width, open/closed) are published next to the leases
//     with the same atomic discipline. Every worker converges on identical
//     per-group seed counts and the exact result order RunAdaptive produces.
//
// Correctness never depends on lease arbitration: records are keyed by the
// cell's full identity and are bit-identical no matter which worker produced
// them, so a lost lease race can at worst duplicate work. The workload cache
// hook (Options.Cache) memoizes placement generation per (kind, n, seed)
// across all of these run modes.
package sweep
