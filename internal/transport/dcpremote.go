package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
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

// HighSeqno reports the remote producer's high seqno.
func (rp *RemoteProducer) HighSeqno() (uint64, error) {
	_, high, err := rp.failoverLog()
	return high, err
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
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 32<<10),
		vb:   rp.vb,
		name: name,
		uuid: streamUUID,
	}
	// A failed ack write: the read side sees the broken conn.
	rs.w = &frameWriter{nc: nc, onErr: func(error) {}}
	mConnsCli.Add(1)
	return rs, nil
}

// RemoteStream is the consumer end of one DCP stream over a socket. It
// implements dcp.MutationStream with no goroutine of its own: Next reads
// the socket on its caller's. Ack additionally reports applied seqnos
// back to the producer for replication durability; the goroutine that
// calls Next calls it.
type RemoteStream struct {
	nc   net.Conn
	br   *bufio.Reader // Next-only; batches pushed mutations into one syscall
	w    *frameWriter
	vb   int
	name string
	uuid uint64
	// closed is set by Close, from any goroutine, before the conn
	// closes: Next reads nothing more once it sees it.
	closed atomic.Bool

	// wanted is the highest seqno the producer asked an ack for (a
	// marked mutation, or the snapshot marker's high seqno); acked is
	// the last ack sent.
	wanted, acked uint64
	// batch is what Next returned last and fills again (dcp.Stream.lent).
	batch []dcp.Mutation
}

var _ dcp.MutationStream = (*RemoteStream)(nil)

// StreamUUID is the vBucket UUID the stream was accepted under.
func (rs *RemoteStream) StreamUUID() uint64 { return rs.uuid }

// Close tears the stream's connection down, which fails a read Next is
// blocked in; the producer side sees EOF and closes its end.
func (rs *RemoteStream) Close() {
	if rs.closed.CompareAndSwap(false, true) {
		rs.nc.Close()
		mConnsCli.Add(-1)
	}
}

// Ack reports an applied seqno to the producer (fire-and-forget; the
// server routes it to the active vBucket's replica ack set), but only
// while a wanted seqno is unacked: an ack nobody waits for costs both
// ends a syscall and a wake-up.
func (rs *RemoteStream) Ack(seqno uint64) {
	if rs.wanted <= rs.acked {
		return
	}
	rs.acked = seqno
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

// Next implements dcp.MutationStream: it blocks for the first pushed
// mutation, then decodes what the read brought with it (the rule of
// every batch on a socket: only what the reader can see). A read error,
// a stream end or a mutation that does not decode closes the stream;
// the batch read before it is still delivered, and the consumer's next
// open resumes after what it applied.
func (rs *RemoteStream) Next() ([]dcp.Mutation, bool) {
	clear(rs.batch)
	batch := rs.batch[:0]
	if cap(batch) > dcp.MaxKeptBatch {
		batch = nil
	}
	for !rs.closed.Load() && (len(batch) == 0 || rs.br.Buffered() > 0) {
		f, err := memcproto.Read(rs.br)
		if err != nil || f.Magic == memcproto.MagicPush && f.Opcode == memcproto.OpDCPStreamEnd {
			rs.Close()
			break
		}
		if f.Magic != memcproto.MagicPush {
			continue
		}
		switch f.Opcode {
		case memcproto.OpDCPSnapshot:
			// A waiter's mutation may be in the window the stream
			// opened on: all of it is wanted.
			high, _ := memcproto.Uint64At(f.Extras, 8)
			rs.wanted = max(high, rs.wanted)
		case memcproto.OpDCPMutation:
			m, ackWanted, err := decodeMutation(f)
			if err != nil {
				// Skipping it would be a gap the consumer cannot detect.
				mDroppedFrames.Inc()
				rs.Close()
				continue
			}
			if ackWanted {
				rs.wanted = max(m.Seqno, rs.wanted)
			}
			batch = append(batch, m)
		}
	}
	rs.batch = batch
	return batch, len(batch) > 0
}

// decodeMutation turns a pushed OpDCPMutation back into a dcp.Mutation.
func decodeMutation(f *memcproto.Frame) (m dcp.Mutation, ackWanted bool, err error) {
	tc, bare, err := memcproto.SplitTraceContext(f)
	if err != nil {
		return m, false, err
	}
	meta, err := memcproto.DecodeItemMeta(bare)
	if err != nil {
		return m, false, err
	}
	m = dcp.Mutation{
		VB:       int(f.VBucket),
		Key:      string(f.Key),
		Seqno:    meta.Seqno,
		CAS:      f.CAS,
		RevSeqno: meta.RevSeqno,
		Flags:    meta.Flags,
		Expiry:   meta.Expiry,
		Deleted:  meta.Deleted,
	}
	// A pushed trace context continues the producer's trace on this
	// node: the apply path's replica:apply span attaches to the local
	// foreign portion rooted under the remote span.
	if tc.Valid() && tc.Sampled {
		m.Trace = trace.Default.Adopt(tc.TraceID, tc.SpanID)
	}
	if len(f.Value) > 0 {
		m.Value = append([]byte(nil), f.Value...)
	}
	return m, meta.AckWanted, nil
}
