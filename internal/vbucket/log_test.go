package vbucket

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestLogPinsNoPassedValue: the log keeps an overwritten value only
// until every cursor has passed it. With the flusher alive, every value
// but the cached one is collectable once it is persisted. With the
// flusher stopped on a closed file, the log keeps nothing for it, yet
// QueueDepth still counts the backlog it left.
func TestLogPinsNoPassedValue(t *testing.T) {
	const overwrites = 2000
	for _, stopped := range []bool{false, true} {
		name := map[bool]string{false: "every cursor passed", true: "the flusher stopped"}[stopped]
		t.Run(name, func(t *testing.T) {
			vb, f := newVB(t, Active, Config{})
			var freed atomic.Int64
			set := func() {
				v := make([]byte, 64)
				runtime.SetFinalizer(&v[0], func(*byte) { freed.Add(1) })
				if _, err := vb.Set(bg, "k", v, 0, 0, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			if stopped {
				f.Close()
				set() // the flusher's Append of it fails, and the flusher stops
				select {
				case <-vb.flushDone:
				case <-time.After(5 * time.Second):
					t.Fatal("the flusher did not stop on a closed file")
				}
			}
			for vb.HighSeqno() < overwrites {
				set()
			}
			if stopped {
				// Every mutation since the file closed, the one whose Append
				// failed included, is still unpersisted.
				if got := vb.QueueDepth(); got != overwrites {
					t.Errorf("QueueDepth = %d after the flusher stopped, want %d", got, overwrites)
				}
			} else if err := vb.DrainDisk(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			want := int64(overwrites - 1) // all but the cached value
			for deadline := time.Now().Add(5 * time.Second); freed.Load() < want && time.Now().Before(deadline); {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := freed.Load(); got < want {
				t.Errorf("%d of %d overwritten values collected, want at least %d", got, overwrites-1, want)
			}
		})
	}
}
