// Package server is the network serving layer that turns the streaming
// engine into a daemon: an HTTP API and a length-prefixed TCP ingestion
// protocol multiplex onto one shared engine.Engine, with periodic snapshot
// checkpointing to disk and restore-on-start.
//
// # Endpoints
//
//	POST /v1/tenants/{id}           create a tenant (universe ≤ engine.MaxUniverse, distances, cost_by_size; "passive":true for a follower copy)
//	POST /v1/tenants/{id}/arrive    serve one arrival or a batch ({"arrivals":[...]})
//	GET  /v1/tenants/{id}/snapshot  consistent tenant snapshot (?compact=1 drops history)
//	GET  /v1/snapshots              all tenants, the serve CLI's snapshot artifact
//	GET  /v1/metrics                engine-wide metrics (arrivals/s, latency, queues, passive_tenants)
//	GET  /healthz                   liveness + uptime
//	POST /v1/checkpoint             force a checkpoint now (404 when disabled)
//	POST /v1/tenants/{id}/extract   remove a tenant; reply: its transfer document, every admitted arrival in it
//	GET  /v1/tenants/{id}/export    the same reply, the tenant kept serving
//	POST /v1/tenants/{id}/inject    restore a tenant from a transfer document naming {id}; 400 on any other body
//	                                (?passive=1: a follower copy that keeps the tail instead of serving it)
//	GET  /v1/tenants/{id}/served    {"served":n,"admitted":m}: the tenant's settled and admitted counts
//	GET  /v1/served                 every tenant's {"tenant","served","admitted"}, sorted by name
//
// A transfer document is a one-tenant checkpoint document in engine.ckpt's
// binary format (engine.EncodeTransfer, engine.DecodeTransfer).
//
// A passive tenant — the cluster router creates and reseeds every follower
// so — admits, counts and records each arrival in its tail but holds no
// algorithm instance. It is built from its base and tail the first time
// something needs its state: a snapshot (GET .../snapshot, GET
// /v1/snapshots), its tail reaching the seal bound, or a capture on a
// non-recording engine, which seals. From then on it is live and serves
// every arrival. Its served counts, checkpoint record and snapshots are
// byte-identical to a live copy's; the tail a passive inject keeps counts in
// the served totals, and the serve-latency histogram times only arrivals
// served from a shard's mailbox, not a restored or injected tail.
// GET /v1/served reads counts without building anything; /v1/metrics'
// passive_tenants (the omflp_passive_tenants gauge on /metrics) counts the
// tenants not yet built.
// The checkpoint records each tenant's role, so a worker restarted from it
// brings every unbuilt copy back passive, its tail kept and not replayed
// (checkpoint.restored_replayed counts the live tenants' tails only). A
// transfer document carries no role: inject's ?passive chooses it.
//
// # Framing
//
// The TCP listener speaks frames: a 4-byte big-endian payload length
// followed by one payload of at most MaxFrame bytes. A frame whose length
// header has the top bit set additionally carries an 8-byte big-endian
// trace id between the header and the payload (WriteFrameTrace/
// ReadFrameTrace); MaxFrame is 2^26 so the flag can never collide with a
// legal length, and untraced frames are byte-identical to the pre-trace
// protocol. When the client half-closes its write side the server replies
// with a single JSON result frame {"ok":bool,"arrivals":n,"error":...,
// "code":...} and closes. That result frame is the stream's truth: a stream
// that fails mid-way reports the first failure's message and sentinel code,
// and every arrival counted in "arrivals" was served.
//
// # Wire formats and negotiation
//
// Two payload encodings ride inside the frames, negotiated per frame, not
// per stream:
//
//   - JSON: one engine.Op document — the same create/arrive documents the
//     JSON-lines stdin protocol uses, minus the line discipline. A JSON
//     payload always starts with '{'.
//   - Binary: the payload's first byte is WireMagic (0xBF, not a legal
//     first byte of JSON or UTF-8 text), then WireVersion (0x01), then an
//     op code, then an op-specific body with every integer an unsigned
//     varint (encoding/binary). IsBinaryFrame dispatches on the first byte.
//
// Because dispatch is per frame, binary and JSON ops interleave freely on
// one stream: the usual shape is JSON create ops (control plane — the
// binary protocol deliberately has no create) followed by binary arrivals
// (data plane), but any mix is legal and all arrivals, whatever their
// encoding, share one stream-wide sequence numbering and ack window.
//
// Binary ops (client→server unless noted):
//
//	BIND   (0x01)  ref, nameLen, name bytes
//	ARRIVE (0x02)  ref, point, k, k demand ids
//	BATCH  (0x03)  ref, count, count × (point, k, k demand ids) — one tenant
//	WINDOW (0x04)  window, flags (bit 0 = want per-op serve latencies)
//	ACK    (0x05)  server→client: firstSeq, count, count result-code bytes,
//	               then count serve-nanosecond varints when latencies were
//	               requested and are available
//
// BIND declares a stream-local tenant ref so later arrivals address the
// tenant by a small integer instead of repeating its name; refs are scoped
// to the connection and may be rebound. BATCH carries same-tenant arrivals
// only — batching across tenants is the client's business (tenants are
// independent instances, so a client may reorder arrivals across tenants to
// build larger batches without changing any tenant's outcome; per-tenant
// order is the determinism contract).
//
// # Windowed acks
//
// By default a stream gets no per-op acknowledgements — only the final
// result frame. A WINDOW frame, sent at most once and before the first
// arrival, turns on windowed acks: the client states its intended maximum
// in-flight arrival count (1..MaxAckWindow) and the server thereafter acks
// every arrival. Acks are coalesced: each ACK frame covers a contiguous run
// of arrival sequence numbers starting at firstSeq (seq 0 is the stream's
// first arrival, JSON arrivals included), with one result-code byte per
// arrival (0 = served) and, when flags bit 0 was set, one serve duration.
// The server never buffers state proportional to the window (in-flight data
// is bounded by the engine mailboxes); the cap exists to reject nonsense
// loudly. Violations — window of 0 or > MaxAckWindow, WINDOW after an
// arrival, a duplicate WINDOW, or a client-sent ACK — fail the stream with
// the ErrWireWindow/ErrWireOp sentinels in the result frame.
//
// The cluster router speaks the same protocol downstream but acks from its
// own layer at accept/route time (code 0, no latencies): a router ack means
// "accepted and routed", not "served" — the final result frame, which folds
// every worker's result, remains the served/failed truth. WINDOW and BIND
// frames are consumed by the router; each upstream connection gets its own
// ref table and the arrive/batch bytes are re-framed with the upstream's
// ref, never re-encoded. A JSON arrive is re-encoded once, as a binary
// ARRIVE, so upstream connections carry arrivals only as binary frames.
//
// # Malformed frames
//
// Decode failures classify under errors.Is-matchable sentinels — ErrWireMagic,
// ErrWireVersion, ErrWireOp, ErrWireTruncated, ErrWireRef, ErrWireWindow —
// and fail the stream cleanly: the client still gets a result frame carrying
// the sentinel text, and the listener keeps serving other connections.
//
// An invalid arrival — a demand id below zero or at or above
// engine.MaxUniverse, refused at ingress by Engine.NewRequest, or a point
// or demand outside the tenant's space or universe, or no demand at all,
// refused by the engine — has one outcome on every path: the arrivals
// ahead of it are served and it ends the stream or batch. The stream's
// result frame carries the error and a windowed stream acks the refused
// slot with its code (3, WireAckInvalid), a JSON arrive with empty demands
// included; an HTTP batch answers 400 with the accepted count. The engine's
// error ring records the refusal either way.
//
// # Checkpoints
//
// With Config.CheckpointDir set, the server writes engine checkpoints to
// <dir>/engine.ckpt every CheckpointEvery (atomic temp-file + rename, so a
// crash mid-write preserves the previous checkpoint), once more during
// graceful shutdown, and restores from that file on startup — a restarted
// server resumes every tenant from its last checkpoint with no cost
// divergence. Checkpoints use the engine's format v2: each tenant's record
// is a base snapshot of its serialized algorithm state plus the arrival
// segment served since (Engine.Config.SealEvery bounds the segment), so a
// restore loads state and replays O(segment) arrivals rather than the full
// history. The file is the engine's binary checkpoint document; New
// refuses a JSON document, and a directory holding only the engine.ckpt.json
// of an earlier build, with an error that names it rather than start
// empty. /v1/metrics reports the checkpoint pipeline's health — write size
// and latency, and the restore's duration (reading the file, restoring and
// replaying), replay count and state bytes — alongside the engine's
// per-shard load breakdown.
package server
