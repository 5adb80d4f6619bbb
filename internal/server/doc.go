// Package server is the long-lived serving layer over the hybrid
// partition/plan pipeline (DESIGN.md §7 extension; the pipeline itself is
// §5.4): cmd/xhybridd mounts it as an HTTP/JSON service that accepts
// X-location maps (the JSON format of ReadXLocations or the text format of
// ReadXLocationsText), runs the paper's partitioning under the request's
// context, and returns the per-partition masks, residual-X counts and the
// Table-1 control-bit accounting.
//
// Three production concerns wrap the pipeline:
//
//   - Admission control: a FIFO slot queue (slotQueue) caps the partition
//     jobs running concurrently and the requests allowed to wait for a
//     slot, granting slots in arrival order; excess load is rejected with
//     503 + Retry-After instead of piling up. Each admitted job gets a
//     per-request worker budget, clamped by the server, which
//     core.Params.Workers hands to internal/pool.
//
//   - Result caching: plans are memoized in an LRU (resultCache) keyed by a
//     canonical digest of the X-map plus every plan-shaping option. The
//     worker count is deliberately excluded from the key — the engine is
//     byte-identical for any worker count — so requests differing only in
//     budget share entries. Hit/miss/eviction counters land in the shared
//     internal/obs recorder.
//
//   - Observability: /metrics exposes the recorder (request, queue, cache
//     and pipeline counters, stage spans) in Prometheus text format next to
//     /healthz and the net/http/pprof handlers under /debug/pprof/.
//
// Cancellation is end-to-end: the request context flows through
// xhybrid.PartitionCtx into core.RunCtx, the split-scoring loops,
// correlation.GroupsWithinCells and the pool fan-outs, so a dropped
// connection or an expired deadline stops compute mid-round. Graceful
// shutdown (Serve under a canceled context) stops accepting connections
// and drains in-flight jobs before returning.
//
// Served results are byte-identical to cmd/xhybrid's output for the same
// input and options: format=text responses are rendered by the same
// Plan.WriteText the CLI prints with.
package server
