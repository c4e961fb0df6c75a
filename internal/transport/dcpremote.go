package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
)

// RemoteProducer is a dcp.StreamSource that lives on the far side of
// a socket: the feed/replication consumer speaks to it exactly as it
// would to a local *dcp.Producer, and every stream it opens rides a
// dedicated connection so a slow consumer never head-of-line-blocks
// request/response traffic.
type RemoteProducer struct {
	addr string
	vb   int
}

var _ dcp.StreamSource = (*RemoteProducer)(nil)

// NewRemoteProducer addresses vbID's producer on the node at addr.
func NewRemoteProducer(addr string, vb int) *RemoteProducer {
	return &RemoteProducer{addr: addr, vb: vb}
}

// exchange runs one request/response on a dedicated conn it dials and,
// on success, hands over with the deadline still armed: the peer may
// accept and never answer (a paused process).
func (rp *RemoteProducer) exchange(f *memcproto.Frame) (net.Conn, *memcproto.Frame, error) {
	raw, err := net.DialTimeout("tcp", rp.addr, dialTimeout)
	if err != nil {
		mDialErrors.Inc()
		return nil, nil, fmt.Errorf("transport: dial %s: %v: %w", rp.addr, err, core.ErrNodeUnreachable)
	}
	raw.SetDeadline(time.Now().Add(dialTimeout))
	nc := countingConn{raw}
	var resp *memcproto.Frame
	if _, err = f.WriteTo(nc); err == nil {
		resp, err = memcproto.Read(nc)
	}
	if err != nil {
		raw.Close()
		return nil, nil, fmt.Errorf("transport: %s: %v: %w", rp.addr, err, core.ErrNodeUnreachable)
	}
	return nc, resp, nil
}

// failoverLog fetches the vBucket's history plus its high seqno.
func (rp *RemoteProducer) failoverLog() ([]dcp.FailoverEntry, uint64, error) {
	nc, resp, err := rp.exchange(&memcproto.Frame{
		Magic:   memcproto.MagicReq,
		Opcode:  memcproto.OpDCPFailoverLog,
		VBucket: uint16(rp.vb),
		Opaque:  1,
	})
	if err != nil {
		return nil, 0, err
	}
	nc.Close()
	if resp.Status != memcproto.StatusOK {
		return nil, 0, errOf(resp.Status, resp.Value)
	}
	var entries []dcp.FailoverEntry
	if err := json.Unmarshal(resp.Value, &entries); err != nil {
		return nil, 0, err
	}
	high, _ := memcproto.Uint64At(resp.Extras, memcproto.EpochLen)
	return entries, high, nil
}

// FailoverLog returns the remote vBucket's history branches (nil on
// transport failure — the caller's resume handshake surfaces the real
// error).
func (rp *RemoteProducer) FailoverLog() []dcp.FailoverEntry {
	entries, _, err := rp.failoverLog()
	if err != nil {
		return nil
	}
	return entries
}

// HighSeqno reports the remote producer's high seqno (0 on transport
// failure).
func (rp *RemoteProducer) HighSeqno() uint64 {
	_, high, err := rp.failoverLog()
	if err != nil {
		return 0
	}
	return high
}

// ResumeStream opens a named stream at (uuid, fromSeqno) over a
// dedicated connection. A rollback rejection comes back as
// *dcp.RollbackError exactly like the in-process producer's. The
// returned stream is a *RemoteStream; replication consumers assert
// that to send durability acks.
func (rp *RemoteProducer) ResumeStream(name string, uuid, fromSeqno uint64) (dcp.MutationStream, error) {
	nc, resp, err := rp.exchange(&memcproto.Frame{
		Magic:   memcproto.MagicReq,
		Opcode:  memcproto.OpDCPStreamReq,
		VBucket: uint16(rp.vb),
		Opaque:  1,
		Extras:  memcproto.StreamReqExtras{UUID: uuid, FromSeqno: fromSeqno}.Encode(),
		Key:     []byte(name),
	})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case memcproto.StatusOK:
	case memcproto.StatusRollback:
		nc.Close()
		rbUUID, _ := memcproto.Uint64At(resp.Extras, memcproto.EpochLen)
		rbSeqno, _ := memcproto.Uint64At(resp.Extras, memcproto.EpochLen+8)
		return nil, &dcp.RollbackError{UUID: rbUUID, Seqno: rbSeqno}
	default:
		nc.Close()
		return nil, errOf(resp.Status, resp.Value)
	}
	streamUUID, _ := memcproto.Uint64At(resp.Extras, memcproto.EpochLen)
	nc.SetDeadline(time.Time{}) // the handshake's

	rs := &RemoteStream{
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 32<<10),
		vb:     rp.vb,
		name:   name,
		uuid:   streamUUID,
		out:    make(chan dcp.Mutation, 256),
		closed: make(chan struct{}),
	}
	// A failed ack write: the read side sees the broken conn.
	rs.w = &frameWriter{nc: nc, onErr: func(error) {}}
	mConnsCli.Add(1)
	go rs.readLoop()
	return rs, nil
}

// RemoteStream is the consumer end of one DCP stream over a socket.
// It implements dcp.MutationStream; Ack additionally reports applied
// seqnos back to the producer for replication durability.
type RemoteStream struct {
	nc     net.Conn
	br     *bufio.Reader // readLoop-only; batches pushed mutations into one syscall
	w      *frameWriter
	vb     int
	name   string
	uuid   uint64
	out    chan dcp.Mutation
	closed chan struct{}
	once   sync.Once

	processed atomic.Uint64
	// wanted is the highest seqno the producer asked an ack for (a
	// marked mutation, or the snapshot marker's high seqno); acked is
	// the last ack sent.
	wanted, acked atomic.Uint64
}

var _ dcp.MutationStream = (*RemoteStream)(nil)

// C returns the mutation channel; it closes when the stream ends.
func (rs *RemoteStream) C() <-chan dcp.Mutation { return rs.out }

// StreamUUID is the vBucket UUID the stream was accepted under.
func (rs *RemoteStream) StreamUUID() uint64 { return rs.uuid }

// Processed is the seqno of the last mutation delivered.
func (rs *RemoteStream) Processed() uint64 { return rs.processed.Load() }

// Close tears the stream's connection down; the producer side sees
// EOF and closes its end.
func (rs *RemoteStream) Close() {
	rs.once.Do(func() {
		close(rs.closed)
		rs.nc.Close()
		mConnsCli.Add(-1)
	})
}

// Ack reports an applied seqno to the producer (fire-and-forget; the
// server routes it to the active vBucket's replica ack set), but only
// while a wanted seqno is unacked: an ack nobody waits for costs both
// ends a syscall and a wake-up.
func (rs *RemoteStream) Ack(seqno uint64) {
	if rs.wanted.Load() <= rs.acked.Load() {
		return
	}
	rs.acked.Store(seqno)
	mDCPAcks.Inc()
	f := &memcproto.Frame{
		Magic:   memcproto.MagicReq,
		Opcode:  memcproto.OpDCPAck,
		VBucket: uint16(rs.vb),
		Key:     []byte(rs.name),
		Extras:  memcproto.AppendUint64(nil, seqno),
	}
	if buf, err := encodeFrame(f); err == nil {
		rs.w.write(context.Background(), buf, false, false)
	}
}

// readLoop turns pushed frames back into dcp.Mutations; it is the
// sole closer of the out channel.
func (rs *RemoteStream) readLoop() {
	defer close(rs.out)
	for {
		f, err := memcproto.Read(rs.br)
		if err != nil {
			rs.Close()
			return
		}
		if f.Magic != memcproto.MagicPush {
			continue
		}
		switch f.Opcode {
		case memcproto.OpDCPSnapshot:
			// A waiter's mutation may be in the window the stream
			// opened on: all of it is wanted.
			high, _ := memcproto.Uint64At(f.Extras, 8)
			rs.wanted.Store(max(high, rs.wanted.Load()))
		case memcproto.OpDCPMutation:
			tc, bare, err := memcproto.SplitTraceContext(f)
			if err != nil {
				continue
			}
			f.Extras = bare
			meta, err := memcproto.DecodeItemMeta(f.Extras)
			if err != nil {
				continue
			}
			if meta.AckWanted {
				rs.wanted.Store(max(meta.Seqno, rs.wanted.Load()))
			}
			m := dcp.Mutation{
				VB:       int(f.VBucket),
				Key:      string(f.Key),
				Seqno:    meta.Seqno,
				CAS:      f.CAS,
				RevSeqno: meta.RevSeqno,
				Flags:    meta.Flags,
				Expiry:   meta.Expiry,
				Deleted:  meta.Deleted,
			}
			// A pushed trace context continues the producer's trace on
			// this node: the apply path's replica:apply span attaches
			// to the local foreign portion rooted under the remote
			// span.
			if tc.Valid() && tc.Sampled {
				m.Trace = trace.Default.Adopt(tc.TraceID, tc.SpanID)
			}
			if len(f.Value) > 0 {
				m.Value = append([]byte(nil), f.Value...)
			}
			select {
			case rs.out <- m:
				rs.processed.Store(m.Seqno)
			case <-rs.closed:
				return
			}
		case memcproto.OpDCPStreamEnd:
			rs.Close()
			return
		}
	}
}
