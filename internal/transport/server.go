package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
	"couchgo/internal/vbucket"
)

// ServerConfig wires a Server to the process-local cluster and the
// process-level topology callbacks StartNode provides.
type ServerConfig struct {
	Cluster *core.Cluster
	// Node is the local node's ID in the process-level map — by
	// convention its advertised KV address.
	Node cmap.NodeID
	// Bucket is the bucket this listener serves (one bucket per KV
	// port, like the seed's single-bucket cbserver).
	Bucket string
	// OnJoin admits a member (key = its advertised KV address) and
	// returns the current process map, nil if not yet minted.
	OnJoin func(addr string) (*cmap.Map, error)
	// OnSetMap applies a seed-pushed process map of the named bucket.
	OnSetMap func(bucket string, m *cmap.Map) error
	// OnHeartbeat records a member heartbeat.
	OnHeartbeat func(addr string)
	// Stats contributes extra fields to OpStats replies.
	Stats func() map[string]any
	// Observe serves OpFederate observability queries: domain names
	// what is asked ("metrics", "health", "events", "trace",
	// "trace-config"), payload and the returned bytes are JSON. Nil
	// answers StatusNotSupported.
	Observe func(domain string, payload []byte) ([]byte, error)
}

// Server accepts wire-protocol connections and dispatches decoded
// frames through the same core.NodeConn.Do the in-process loopback
// uses — both transports execute the identical op path.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Listen starts a server on addr ("host:port", port 0 for ephemeral).
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, cfg), nil
}

// Serve starts a server on an already-bound listener (the node layer
// binds first so it can advertise the real port before serving).
func Serve(ln net.Listener, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, ln: ln, sessions: map[*session]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr is the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and tears down every session.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	s.ln.Close()
	for _, sess := range sessions {
		sess.close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			return
		}
		sess := &session{
			srv:     s,
			nc:      countingConn{raw},
			streams: map[streamKey]dcp.MutationStream{},
			sem:     make(chan struct{}, 128),
		}
		sess.br = bufio.NewReaderSize(sess.nc, 32<<10)
		sess.w = &frameWriter{nc: sess.nc, onErr: func(error) { sess.close() }}
		sess.ctx, sess.cancel = context.WithCancel(context.Background())
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			raw.Close()
			return
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		mConns.Add(1)
		s.wg.Add(1)
		go sess.readLoop()
	}
}

// currentMap is the map responses advertise: the process's one map of
// the bucket, nil if the bucket is gone.
func (s *Server) currentMap() *cmap.Map {
	m, _ := s.cfg.Cluster.BucketMap(s.cfg.Bucket)
	return m
}

func (s *Server) epoch() int64 {
	if m := s.currentMap(); m != nil {
		return m.Rev
	}
	return 0
}

type streamKey struct {
	vb   int
	name string
}

// session is one accepted connection: a reader goroutine decoding
// frames and answering what cannot block inline, handler goroutines
// for what can (responses demux by opaque, so order does not matter),
// and one frameWriter through which each of them writes.
type session struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader // readLoop-only; batches pipelined requests into one syscall
	w    *frameWriter
	once sync.Once
	sem  chan struct{}
	// ctx is cancelled when the session closes, releasing in-flight
	// handler goroutines (durability waits, consistency waits) whose
	// client is gone.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	streams map[streamKey]dcp.MutationStream
}

func (c *session) close() {
	c.once.Do(func() {
		c.cancel()
		c.nc.Close()
		mConns.Add(-1)
		c.mu.Lock()
		streams := c.streams
		c.streams = map[streamKey]dcp.MutationStream{}
		c.mu.Unlock()
		for _, st := range streams {
			st.Close()
		}
		c.srv.mu.Lock()
		delete(c.srv.sessions, c)
		c.srv.mu.Unlock()
	})
}

// send encodes and writes one frame, or queues it when held (the sender
// sees more coming and will write again). One that cannot be encoded
// would leave its opaque pending forever, so the session closes.
func (c *session) send(f *memcproto.Frame, held bool) {
	buf, err := encodeFrame(f)
	if err != nil {
		mDroppedFrames.Inc()
		c.close()
		return
	}
	c.w.write(context.Background(), buf, held, false) // an error has closed the session
}

// respond builds the response frame for req: status, the epoch-prefixed
// extras, and either the payload or the error message.
func (c *session) respond(req *memcproto.Frame, status memcproto.Status, extras, value []byte, cas uint64) {
	c.send(&memcproto.Frame{
		Magic:  memcproto.MagicRes,
		Opcode: req.Opcode,
		Status: status,
		Opaque: req.Opaque,
		CAS:    cas,
		Extras: extras,
		Value:  value,
	}, false)
}

// respondErr maps a handler error onto the wire, shipping the fat map
// on not-my-vbucket so the client refreshes in one round trip.
func (c *session) respondErr(req *memcproto.Frame, err error) {
	status := statusOf(err)
	extras := memcproto.AppendEpoch(nil, c.srv.epoch())
	var value []byte
	if status == memcproto.StatusNotMyVBucket {
		if m := c.srv.currentMap(); m != nil {
			value, _ = json.Marshal(m)
		}
	} else {
		value = []byte(err.Error())
	}
	c.respond(req, status, extras, value, 0)
}

func (c *session) readLoop() {
	defer c.srv.wg.Done()
	defer c.close()
	// Responses are held while more pipelined requests sit in br, and
	// leave before the read blocks.
	held := false
	for {
		if held && c.br.Buffered() == 0 {
			held = c.w.hold(false)
		}
		f, err := memcproto.Read(c.br)
		if err != nil {
			return
		}
		if !held && c.br.Buffered() > 0 {
			held = c.w.hold(true)
		}
		if f.Magic != memcproto.MagicReq {
			return // protocol violation; drop the conn
		}
		switch f.Opcode {
		case memcproto.OpDCPStreamReq, memcproto.OpDCPAck, memcproto.OpDCPFailoverLog:
			c.handleDCP(f)
		case memcproto.OpJoin, memcproto.OpGetClusterMap, memcproto.OpSetClusterMap,
			memcproto.OpHeartbeat, memcproto.OpStats, memcproto.OpNoop, memcproto.OpHello,
			memcproto.OpFederate:
			c.handleAdmin(f)
		default:
			c.handleKV(f)
		}
	}
}

// fastKV reports whether the decoded op is guaranteed not to block on
// a durability wait, making it safe to execute inline on the session
// read loop: its row carries no durability, or this request asks for
// none.
func fastKV(spec *memcproto.OpSpec, op core.Op) bool {
	return !spec.Durable || (op.Dur.ReplicateTo <= 0 && !op.Dur.PersistTo)
}

func (c *session) handleAdmin(f *memcproto.Frame) {
	extras := memcproto.AppendEpoch(nil, c.srv.epoch())
	switch f.Opcode {
	case memcproto.OpNoop, memcproto.OpHello:
		c.respond(f, memcproto.StatusOK, extras, nil, 0)
	case memcproto.OpJoin:
		if c.srv.cfg.OnJoin == nil {
			c.respond(f, memcproto.StatusNotSupported, extras, []byte("not a coordinator"), 0)
			return
		}
		m, err := c.srv.cfg.OnJoin(string(f.Key))
		if err != nil {
			c.respondErr(f, err)
			return
		}
		var value []byte
		if m != nil {
			value, _ = json.Marshal(m)
		}
		c.respond(f, memcproto.StatusOK, memcproto.AppendEpoch(nil, c.srv.epoch()), value, 0)
	case memcproto.OpGetClusterMap:
		m := c.srv.currentMap()
		if m == nil {
			c.respond(f, memcproto.StatusKeyNotFound, extras, []byte("no cluster map yet"), 0)
			return
		}
		value, _ := json.Marshal(m)
		c.respond(f, memcproto.StatusOK, extras, value, 0)
	case memcproto.OpSetClusterMap:
		m, err := decodeMap(f.Value)
		if err == nil && c.srv.cfg.OnSetMap != nil {
			err = c.srv.cfg.OnSetMap(string(f.Key), m)
		}
		if err != nil {
			c.respondErr(f, err)
			return
		}
		c.respond(f, memcproto.StatusOK, memcproto.AppendEpoch(nil, c.srv.epoch()), nil, 0)
	case memcproto.OpHeartbeat:
		if c.srv.cfg.OnHeartbeat != nil {
			c.srv.cfg.OnHeartbeat(string(f.Key))
		}
		c.respond(f, memcproto.StatusOK, extras, nil, 0)
	case memcproto.OpStats:
		stats := map[string]any{}
		if c.srv.cfg.Stats != nil {
			for k, v := range c.srv.cfg.Stats() {
				stats[k] = v
			}
		}
		value, _ := json.Marshal(stats)
		c.respond(f, memcproto.StatusOK, extras, value, 0)
	case memcproto.OpFederate:
		if c.srv.cfg.Observe == nil {
			c.respond(f, memcproto.StatusNotSupported, extras, []byte("no observability provider"), 0)
			return
		}
		value, err := c.srv.cfg.Observe(string(f.Key), f.Value)
		if err != nil {
			c.respondErr(f, err)
			return
		}
		c.respond(f, memcproto.StatusOK, extras, value, 0)
	}
}

// handleKV serves one KV request, all of it driven by the opcode's
// table row: decode by the row's extras layout, execute through the
// local node's loopback conn (including the server-side durability
// wait of a Set/Delete), encode by the row's response shape.
func (c *session) handleKV(f *memcproto.Frame) {
	t0 := time.Now()
	spec := memcproto.SpecOf(f.Opcode)
	if spec == nil {
		c.respond(f, memcproto.StatusNotSupported, memcproto.AppendEpoch(nil, c.srv.epoch()),
			[]byte("opcode "+f.Opcode.String()+" not supported"), 0)
		opObserve(f.Opcode, "error", t0)
		return
	}
	// A trace context may ride the extras tail (announced by the
	// datatype flag): strip and validate it before any extras field is
	// read, then continue the client's trace so the cache, storage,
	// and DCP spans this request causes land under the client's span
	// across the process boundary.
	tc, bare, err := memcproto.SplitTraceContext(f)
	if err != nil {
		c.finishKV(f, stages{}, t0, core.Result{}, err)
		return
	}
	// ctx descends from the session ctx, not Background: when the
	// client hangs up, its pending durability waits unwind instead of
	// holding vBucket waiters for a response no one will read.
	ctx, span := trace.Default.Join(c.ctx, spec.ServerSpan, tc.TraceID, tc.SpanID, tc.Sampled)
	span.Annotate("node", string(c.srv.cfg.Node))
	st := startStages(span)
	op, err := decodeRequest(spec, f, bare)
	st.mark(stageDecode)
	if err != nil {
		c.finishKV(f, st, t0, core.Result{}, err)
		return
	}
	// Ops that cannot block run inline on the read loop, their responses
	// held while more pipelined requests are buffered; ops that may wait
	// get their own goroutine (bounded by sem) so one durability wait
	// does not stall the conn.
	if fastKV(spec, op) {
		c.execKV(ctx, f, st, t0, op)
		return
	}
	c.sem <- struct{}{}
	go func(st stages) { // an argument: a capture would put every request's st on the heap
		defer func() { <-c.sem }()
		c.execKV(ctx, f, st, t0, op)
	}(st)
}

func (c *session) execKV(ctx context.Context, f *memcproto.Frame, st stages, t0 time.Time, op core.Op) {
	var res core.Result
	conn, err := c.srv.cfg.Cluster.LoopbackConn(c.srv.cfg.Node, c.srv.cfg.Bucket)
	if err == nil {
		res, err = conn.Do(ctx, int(f.VBucket), op)
	}
	st.mark(stageExecute)
	c.finishKV(f, st, t0, res, err)
}

// finishKV answers req with res or err, then closes the server span
// (st.sp) and the per-opcode latency observation with the outcome.
func (c *session) finishKV(req *memcproto.Frame, st stages, t0 time.Time, res core.Result, err error) {
	result := "ok"
	if err == nil {
		var extras, value []byte
		var cas uint64
		if extras, value, cas, err = encodeResult(memcproto.SpecOf(req.Opcode).Resp, res, c.srv.epoch()); err == nil {
			c.respond(req, memcproto.StatusOK, extras, value, cas)
		}
	}
	if err != nil {
		result = kvResult(err)
		c.respondErr(req, err)
	}
	st.mark(stageRespond)
	if st.sp != nil {
		if result != "ok" {
			st.sp.Annotate("result", result)
		}
		st.sp.End()
	}
	opObserve(req.Opcode, result, t0)
}

// handleDCP serves stream requests, failover-log fetches, and
// replication acks. Each accepted stream gets a pumpStream goroutine
// pushing mutation frames tagged with the request's opaque; the
// consumer side dedicates a connection per stream, so pushes never
// compete with a request/response conversation.
func (c *session) handleDCP(f *memcproto.Frame) {
	vbID := int(f.VBucket)
	name := string(f.Key)
	extras := memcproto.AppendEpoch(nil, c.srv.epoch())

	vb, err := c.srv.cfg.Cluster.NodeVB(c.srv.cfg.Node, c.srv.cfg.Bucket, vbID)
	if err == nil && vb == nil {
		err = vbucket.ErrNotMyVBucket
	}
	if err != nil {
		if f.Opcode != memcproto.OpDCPAck {
			c.respondErr(f, err)
		}
		return
	}
	producer := vb.Producer()

	switch f.Opcode {
	case memcproto.OpDCPFailoverLog:
		value, _ := json.Marshal(producer.FailoverLog())
		high, _ := producer.HighSeqno() // a local producer's never fails
		c.respond(f, memcproto.StatusOK, memcproto.AppendUint64(extras, high), value, 0)

	case memcproto.OpDCPAck:
		seqno, ok := memcproto.Uint64At(f.Extras, 0)
		if !ok {
			return
		}
		// The ack names the replica the same way the in-process
		// replicator does: the stream "replica:<addr>" acks as <addr>.
		vb.AckReplica(strings.TrimPrefix(name, "replica:"), seqno)

	case memcproto.OpDCPStreamReq:
		se, err := memcproto.DecodeStreamReqExtras(f.Extras)
		if err != nil {
			c.respondErr(f, err)
			return
		}
		ms, err := producer.ResumeStream(name, se.UUID, se.FromSeqno)
		var rb *dcp.RollbackError
		if errors.As(err, &rb) {
			// Rollback handshake: ship the divergence point; the
			// consumer rewinds and re-requests.
			ex := memcproto.AppendUint64(memcproto.AppendUint64(extras, rb.UUID), rb.Seqno)
			c.respond(f, memcproto.StatusRollback, ex, []byte(err.Error()), 0)
			return
		}
		if err != nil {
			c.respondErr(f, err)
			return
		}
		c.mu.Lock()
		old := c.streams[streamKey{vbID, name}]
		c.streams[streamKey{vbID, name}] = ms
		c.mu.Unlock()
		if old != nil {
			old.Close()
		}
		c.respond(f, memcproto.StatusOK, memcproto.AppendUint64(extras, ms.StreamUUID()), nil, 0)
		go c.pumpStream(f.Opaque, vb, name, se.FromSeqno, ms)
	}
}

// pumpStream pushes one stream's mutations until it ends or the
// session dies: every frame of a batch but its last is held, so a batch
// leaves in one write, and each asks for an ack while somebody waits on
// replication.
func (c *session) pumpStream(opaque uint32, vb *vbucket.VBucket, name string, fromSeqno uint64, ms dcp.MutationStream) {
	mStreamsServing.Add(1)
	defer mStreamsServing.Add(-1)

	e := events.New(events.DCP, events.SevInfo, "serving dcp stream over transport")
	e.Node, e.Bucket, e.VB = string(c.srv.cfg.Node), c.srv.cfg.Bucket, vb.ID
	e.Fields = map[string]string{"stream": name, "from_seqno": strconv.FormatUint(fromSeqno, 10)}
	events.Default.Publish(e)

	// Snapshot marker: the window the pushes that follow belong to.
	high, _ := vb.Producer().HighSeqno() // a local producer's never fails
	c.send(&memcproto.Frame{
		Magic: memcproto.MagicPush, Opcode: memcproto.OpDCPSnapshot,
		VBucket: uint16(vb.ID), Opaque: opaque,
		Extras: memcproto.AppendUint64(memcproto.AppendUint64(nil, fromSeqno), high),
	}, false)
	for batch, ok := ms.Next(); ok; batch, ok = ms.Next() {
		for i, m := range batch {
			meta := memcproto.ItemMeta{
				Seqno: m.Seqno, RevSeqno: m.RevSeqno, Flags: m.Flags,
				Expiry: m.Expiry, Deleted: m.Deleted, Resident: true, AckWanted: vb.ReplicationAwaited(),
			}
			extras := memcproto.AppendItemMeta(nil, meta)
			var datatype byte
			// A sampled mutation propagates its trace context to the
			// consumer (replica), parented at this node's portion root, so
			// the replica's apply span lands in the same distributed trace.
			if id, spanID, ok := m.Trace.RootWire(); ok {
				extras = memcproto.AppendTraceContext(extras,
					memcproto.TraceContext{TraceID: id, SpanID: spanID, Sampled: true})
				datatype = memcproto.DatatypeTraceCtx
			}
			c.send(&memcproto.Frame{
				Magic: memcproto.MagicPush, Opcode: memcproto.OpDCPMutation,
				Datatype: datatype,
				VBucket:  uint16(vb.ID), Opaque: opaque, CAS: m.CAS,
				Extras: extras, Key: []byte(m.Key), Value: m.Value,
			}, i < len(batch)-1)
		}
	}
	c.send(&memcproto.Frame{
		Magic: memcproto.MagicPush, Opcode: memcproto.OpDCPStreamEnd,
		VBucket: uint16(vb.ID), Opaque: opaque,
	}, false)
	c.mu.Lock()
	if c.streams[streamKey{vb.ID, name}] == ms {
		delete(c.streams, streamKey{vb.ID, name})
	}
	c.mu.Unlock()
}

// kvResult labels a KV handler outcome for the per-opcode latency
// histogram: NMVB bounces get their own series so their fast turnaround
// does not flatter the op's real quantiles.
func kvResult(err error) string {
	if errors.Is(err, vbucket.ErrNotMyVBucket) {
		return "not_my_vbucket"
	}
	return "error"
}
