package transport

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"

	"couchgo/internal/memcproto"
	"couchgo/internal/metrics"
)

// mFramesPerSyscall: frames carried by each socket write (DESIGN.md §10).
var mFramesPerSyscall = metrics.Default.ValueHistogram("couchgo_transport_frames_per_syscall")

// maxCoalesceBytes bounds a frameWriter's queue, and so one write's
// batch, when a DCP backfill queues hundreds of large frames.
const maxCoalesceBytes = 256 << 10

// maxPooledBufBytes caps what encode buffers the pool retains: a
// one-off giant frame is left for the GC, not pinned forever.
const maxPooledBufBytes = 64 << 10

// wireBufs recycles encode buffers: encodeFrame draws one, the frame
// rides the frameWriter's queue inside it, and the writer returns it.
// Pooled as *[]byte so Get/Put don't box a slice header per frame.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// encodeFrame encodes f into a pooled buffer. Ownership of the buffer
// transfers with it: whoever consumes it must recycleBuf it.
func encodeFrame(f *memcproto.Frame) (*[]byte, error) {
	pb := wireBufs.Get().(*[]byte)
	b, err := f.Append((*pb)[:0])
	if err != nil {
		wireBufs.Put(pb)
		return nil, err
	}
	*pb = b
	return pb, nil
}

// recycleBuf returns an encode buffer to the pool.
func recycleBuf(pb *[]byte) {
	if cap(*pb) <= maxPooledBufBytes {
		wireBufs.Put(pb)
	}
}

func recycleBufs(pbs []*[]byte) {
	for _, pb := range pbs {
		recycleBuf(pb)
	}
}

// frameWriter is a socket's one writer, and it is not a goroutine. The
// sender that holds an encoded frame writes it itself when no write is
// in flight (it leads); a frame that arrives during a write is queued
// and leaves in the leader's next syscall (it rides), the shape of group
// commit. mu is never held across Write. Frames are batched only on
// what a sender can see (it holds one back, or one arrives behind a
// write); a lone frame goes out with no hand-off, no yield and no copy.
// A batch is flattened, not handed to net.Buffers: countingConn hides
// the writev fast path.
type frameWriter struct {
	nc    net.Conn
	onErr func(error) // fails the owning conn; idempotent

	mu      sync.Mutex
	writing bool          // a leader is taking batches
	holding bool          // hold(true): every frame queues until hold(false)
	queue   []*[]byte     // arrival order
	queued  int           // bytes in queue: under maxCoalesceBytes plus one frame
	space   chan struct{} // non-nil while a producer waits; closed when the queue is taken
	err     error         // sticky: the first write error
	batch   []*[]byte     // leader-only: the frames of the write in flight
	scratch []byte        // leader-only: a multi-frame batch, flattened
}

// write sends the frame in pb, whose ownership it takes. held leaves it
// queued for a flush the sender promises (its next write, or
// hold(false)); crowded, the sender knowing others are about to write,
// yields once after queueing so their frames share the syscall. A
// producer that finds the queue full behind a write waits for the
// leader, its ctx, or the socket's failure.
func (w *frameWriter) write(ctx context.Context, pb *[]byte, held, crowded bool) error {
	w.mu.Lock()
	for w.writing && w.queued >= maxCoalesceBytes && w.err == nil {
		if w.space == nil {
			w.space = make(chan struct{})
		}
		space := w.space
		w.mu.Unlock()
		select {
		case <-space:
		case <-ctx.Done():
			recycleBuf(pb)
			return ctx.Err()
		}
		w.mu.Lock()
	}
	if err := cmp.Or(w.err, ctx.Err()); err != nil { // a ctx already over could not release a leader
		w.mu.Unlock()
		recycleBuf(pb)
		return err
	}
	w.queue = append(w.queue, pb)
	w.queued += len(*pb)
	if crowded && !w.writing {
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
	}
	return w.drainLocked(ctx, held || w.holding)
}

// hold(true) makes every write queue, for a sender that sees more
// frames coming; hold(false) ends that and sends what is held.
func (w *frameWriter) hold(on bool) bool {
	w.mu.Lock()
	w.holding = on
	w.drainLocked(context.Background(), on) // an error has reached onErr
	return on
}

// drainLocked, entered with mu held and leaving without it, writes the
// queue out unless a leader is already doing so or the frames are to be
// kept (and fit). A ctx that can end fails the conn when it does: a
// leader blocked in Write by a peer that stopped reading has no other
// way out.
func (w *frameWriter) drainLocked(ctx context.Context, keep bool) error {
	if w.writing || w.err != nil || len(w.queue) == 0 || keep && w.queued < maxCoalesceBytes {
		defer w.mu.Unlock()
		return w.err
	}
	w.writing = true
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { w.onErr(fmt.Errorf("writer's ctx ended mid-write: %w", ctx.Err())) })()
	}
	var err error
	for err == nil && len(w.queue) > 0 {
		w.batch, w.queue, w.queued = w.queue, w.batch[:0], 0
		w.wakeLocked()
		w.mu.Unlock()
		buf := *w.batch[0]
		if len(w.batch) > 1 {
			buf = w.scratch[:0]
			for _, pb := range w.batch {
				buf = append(buf, *pb...)
			}
			if w.scratch = buf; cap(buf) > 4*maxCoalesceBytes {
				w.scratch = nil // don't pin a giant buffer after a burst
			}
		}
		if _, err = w.nc.Write(buf); err == nil {
			mFramesPerSyscall.ObserveValue(uint64(len(w.batch)))
		}
		recycleBufs(w.batch)
		w.mu.Lock()
	}
	w.writing = false
	if err != nil {
		w.err = err
		recycleBufs(w.queue)
		w.queue, w.queued = nil, 0
		w.wakeLocked()
	}
	w.mu.Unlock()
	if err != nil {
		w.onErr(err)
	}
	return err
}

// wakeLocked releases the producers waiting for queue space.
func (w *frameWriter) wakeLocked() {
	if w.space != nil {
		close(w.space)
		w.space = nil
	}
}
