// Package transport moves the cluster's node-to-node and
// client-to-node seams onto real sockets. It speaks the binary KV
// wire protocol of internal/memcproto over TCP: a per-node client
// pool (Pool/Conn) multiplexes request/response frames by opaque, the
// Server decodes frames and dispatches them through the same
// core.NodeConn surface the in-process loopback uses, and a
// NetRouter implements core.Router so the smart client routes over
// the wire without knowing it. DCP streams get a dedicated
// connection each: the producer side pushes mutation frames, the
// consumer side acks seqnos, and resume is the same (UUID, seqno)
// handshake as in-process — just across a socket.
//
// StartNode (cluster.go) turns N independent cbserver processes into
// one cluster: members heartbeat the seed, the seed's core.Decider mints a
// balanced process-level map once the expected cluster size is
// reached, and every member hands each pushed map to core's applier,
// which wires socket-backed replica streams between processes.
package transport

import (
	"net"
	"sync/atomic"
	"time"

	"couchgo/internal/memcproto"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// Transport metric families. Conns counts live sockets on each side;
// bytes are raw framed traffic split by direction; notmyvbucket
// counts stale-map bounces (the router's refresh trigger); the
// per-opcode histogram is server-side handling latency including any
// durability wait.
var (
	mConns      = metrics.Default.Gauge("couchgo_transport_conns", "side", "server")
	mConnsCli   = metrics.Default.Gauge("couchgo_transport_conns", "side", "client")
	mBytesIn    = metrics.Default.Counter("couchgo_transport_bytes_total", "dir", "in")
	mBytesOut   = metrics.Default.Counter("couchgo_transport_bytes_total", "dir", "out")
	mNotMyVB    = metrics.Default.Counter("couchgo_notmyvbucket_total")
	mDialErrors = metrics.Default.Counter("couchgo_transport_dial_errors_total")
	// mStreamsServing counts DCP streams currently being pumped by
	// servers in this process.
	mStreamsServing = metrics.Default.Gauge("couchgo_transport_dcp_streams_serving")
	// mDCPAcks counts replica acks sent: one per run a waiter wanted.
	mDCPAcks = metrics.Default.Counter("couchgo_transport_dcp_acks_total")
	// mDroppedFrames counts unencodable responses and undecodable DCP
	// pushes; each closed its session or stream.
	mDroppedFrames = metrics.Default.Counter("couchgo_transport_dropped_frames_total")

	// The round trip, split. Client: send ends with the caller's frame
	// on the socket or queued behind a writer, await with the response
	// in the caller's hands; wake is the part of await after the read
	// loop had the frame. Server: respond ends with it written or held.
	stageSend, stageAwait, stageWake        = trace.NewStage("wire:send"), trace.NewStage("wire:await"), trace.NewStage("wire:wake")
	stageDecode, stageExecute, stageRespond = trace.NewStage("wire:decode"), trace.NewStage("wire:execute"), trace.NewStage("wire:respond")
)

// stages times one request's way through one side of the wire: mark
// records the stage that just ended, under sp when the request is
// traced. Untraced requests are timed 1 in 16.
type stages struct {
	sp *trace.Span
	at time.Time // zero: not timed
}

func startStages(sp *trace.Span) stages {
	if sp != nil {
		return stages{sp, time.Now()}
	}
	at, _ := metrics.Sample()
	return stages{sp, at}
}

func (s *stages) mark(st *trace.Stage) {
	if s.at.IsZero() {
		return
	}
	now := time.Now()
	st.Record(s.sp, s.at, now, nil, nil)
	s.at = now
}

// opHistogram is server-side handling latency per opcode, labeled by
// result so fast NOT_MY_VBUCKET bounces don't flatter the op's
// quantiles: an NMVB retry counts (and is visible) against the
// originating op's series instead of hiding inside "ok".
func opHistogram(opcode, result string) *metrics.Histogram {
	return metrics.Default.Histogram("couchgo_transport_op_seconds", "opcode", opcode, "result", result)
}

// opHistOK caches the result="ok" histogram per opcode byte: the
// registry lookup (label-string build + locked map access) is too
// expensive to repeat on every request, and "ok" is the overwhelmingly
// common outcome. Error results stay on the slow lookup path, where
// Opcode.String() is also deferred to.
var opHistOK [256]atomic.Pointer[metrics.Histogram]

func opObserve(op memcproto.Opcode, result string, t0 time.Time) {
	if result == "ok" {
		h := opHistOK[byte(op)].Load()
		if h == nil {
			h = opHistogram(op.String(), "ok")
			opHistOK[byte(op)].Store(h)
		}
		h.ObserveSince(t0)
		return
	}
	opHistogram(op.String(), result).ObserveSince(t0)
}

// nmvbCounter attributes a client-observed NMVB bounce to the op that
// triggered it.
func nmvbCounter(opcode string) *metrics.Counter {
	return metrics.Default.Counter("couchgo_notmyvbucket_total", "opcode", opcode)
}

// countingConn wraps a net.Conn so every byte in or out lands in the
// transport byte counters — both sides wrap their sockets with it.
type countingConn struct {
	net.Conn
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		mBytesIn.Add(uint64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		mBytesOut.Add(uint64(n))
	}
	return n, err
}
