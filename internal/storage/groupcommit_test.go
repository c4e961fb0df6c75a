package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openSynced opens a durable file whose unwaited leaders go through a
// Syncer of its own, as a Store's files do.
func openSynced(t *testing.T) *VBFile {
	t.Helper()
	v, err := Open(filepath.Join(t.TempDir(), "vb.couch"), true)
	if err != nil {
		t.Fatal(err)
	}
	v.syncer = NewSyncer()
	t.Cleanup(func() { v.Close() })
	return v
}

// eachWaited runs test once with unwaited appends (their leader joins
// the device round) and once with waited ones (it fsyncs at once): the
// group-commit contract is the same on both paths.
func eachWaited(t *testing.T, test func(t *testing.T, waited bool)) {
	for _, waited := range []bool{false, true} {
		t.Run(fmt.Sprintf("waited=%v", waited), func(t *testing.T) { test(t, waited) })
	}
}

// TestGroupCommitRiders drives the leader/rider protocol
// deterministically: with an fsync "in flight" (the syncing flag held
// by the test), concurrent durable appends must write their batches
// and then park as riders — not return, since nothing covers them yet
// — and must all complete together the moment the watermark advances
// past their batches. A waited append rides like any other.
func TestGroupCommitRiders(t *testing.T) {
	eachWaited(t, testGroupCommitRiders)
}

func testGroupCommitRiders(t *testing.T, waited bool) {
	v := openSynced(t)

	// Pose as an in-flight fsync leader.
	v.syncMu.Lock()
	v.syncing = true
	v.syncMu.Unlock()

	ridersBefore := mGroupCommitRiders.Value()

	const appenders = 4
	done := make(chan error, appenders)
	for i := 0; i < appenders; i++ {
		go func(i int) {
			done <- v.Append([]Record{rec(fmt.Sprintf("k%d", i), uint64(i+1), "v")}, waited)
		}(i)
	}

	// All four batches reach the file while the "fsync" runs...
	deadline := time.Now().Add(5 * time.Second)
	for {
		v.mu.Lock()
		seq := v.appendSeq
		v.mu.Unlock()
		if seq == appenders {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("appendSeq stuck at %d", seq)
		}
		time.Sleep(time.Millisecond)
	}
	// ...but none may be acknowledged before an fsync covers them:
	// that is the durability contract the group commit must not bend.
	select {
	case err := <-done:
		t.Fatalf("durable append returned (%v) before any fsync covered it", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The leader's fsync completes, covering every batch written while
	// it ran. All riders return together.
	v.syncMu.Lock()
	v.syncedSeq = appenders
	v.syncing = false
	v.syncCond.Broadcast()
	v.syncMu.Unlock()

	for i := 0; i < appenders; i++ {
		if err := <-done; err != nil {
			t.Fatalf("rider append: %v", err)
		}
	}
	if got := mGroupCommitRiders.Value() - ridersBefore; got != appenders {
		t.Errorf("rider count advanced by %d, want %d", got, appenders)
	}
}

// TestGroupCommitConcurrentAppends hammers one durable file from many
// goroutines: every append must succeed, every record must be
// readable, and the number of fsync batches must not exceed the
// number of appends (coalescing can only shrink it).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	v := openSynced(t)

	batchesBefore := mGroupCommitBatches.Value()

	const goroutines, per = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				errs <- v.Append([]Record{rec(key, uint64(g*per+i+1), "v-"+key)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			key := fmt.Sprintf("g%d-i%d", g, i)
			got, err := v.Get(key)
			if err != nil || string(got.Value) != "v-"+key {
				t.Fatalf("Get(%s) = %q, %v", key, got.Value, err)
			}
		}
	}

	batches := mGroupCommitBatches.Value() - batchesBefore
	if batches == 0 || batches > goroutines*per {
		t.Errorf("fsync batches = %d, want 1..%d", batches, goroutines*per)
	}
}

// TestGroupCommitStickyError: after a failed fsync the durable prefix
// is unknowable, so every later durable append must fail fast rather
// than pretend.
func TestGroupCommitStickyError(t *testing.T) {
	eachWaited(t, testGroupCommitStickyError)
}

func testGroupCommitStickyError(t *testing.T, waited bool) {
	v := openSynced(t)
	if err := v.Append([]Record{rec("a", 1, "v")}, waited); err != nil {
		t.Fatal(err)
	}

	v.syncMu.Lock()
	v.syncErr = fmt.Errorf("disk on fire")
	v.syncMu.Unlock()

	if err := v.Append([]Record{rec("b", 2, "v")}, waited); err == nil {
		t.Fatal("durable append succeeded after a failed fsync")
	}
}

// TestGroupCommitCompactRace interleaves durable appends with
// compactions: Compact swaps the descriptor a leader may be about to
// fsync, so the quiesce barrier is load-bearing. Run with -race.
func TestGroupCommitCompactRace(t *testing.T) {
	eachWaited(t, testGroupCommitCompactRace)
}

func testGroupCommitCompactRace(t *testing.T, waited bool) {
	v := openSynced(t)

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Rewrite a small key set so compaction has garbage.
				key := fmt.Sprintf("w%d-k%d", w, i%3)
				if err := v.Append([]Record{rec(key, uint64(w*1_000_000+i+1), "v")}, waited); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 10; i++ {
		if err := v.Compact(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Every live key must still be intact after the churn.
	for w := 0; w < writers; w++ {
		for k := 0; k < 3; k++ {
			if _, err := v.Get(fmt.Sprintf("w%d-k%d", w, k)); err != nil {
				t.Errorf("w%d-k%d lost: %v", w, k, err)
			}
		}
	}
}

// TestSyncerCoalescesAcrossFiles checks the device-level tier: many
// files fsyncing through one Syncer all complete, and a round fsyncs
// each distinct descriptor once.
func TestSyncerCoalescesAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	s := NewSyncer()
	const files = 4
	vs := make([]*VBFile, files)
	for i := range vs {
		v, err := Open(filepath.Join(dir, fmt.Sprintf("vb_%d.couch", i)), true)
		if err != nil {
			t.Fatal(err)
		}
		v.syncer = s
		t.Cleanup(func() { v.Close() })
		vs[i] = v
	}

	var wg sync.WaitGroup
	errs := make(chan error, files*8)
	for i, v := range vs {
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func(v *VBFile, i, j int) {
				defer wg.Done()
				errs <- v.Append([]Record{rec(fmt.Sprintf("f%d-k%d", i, j), uint64(i*100+j+1), "v")})
			}(v, i, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWaitedAppendSkipsTheRound poses as a device round that does not
// end: a waited append on one file of the Store must still come back
// covered by its own fsync, while an unwaited append on another file
// stays queued for the round until the round is released.
func TestWaitedAppendSkipsTheRound(t *testing.T) {
	st, err := NewStore(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	a, err := st.VB(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.VB(1)
	if err != nil {
		t.Fatal(err)
	}

	s := st.syncer
	release := func() {
		s.mu.Lock()
		s.syncing = false
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.syncing = true
	s.mu.Unlock()
	t.Cleanup(release) // before st.Close, which waits out b's leader

	unwaited := make(chan error, 1)
	go func() { unwaited <- b.Append([]Record{rec("b", 1, "v")}) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		queued := len(s.pending)
		s.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the unwaited append never queued for the round")
		}
		time.Sleep(time.Millisecond)
	}

	before := mWaitedSyncs.Value()
	waited := make(chan error, 1)
	go func() { waited <- a.Append([]Record{rec("a", 1, "v")}, true) }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waited append queued behind the device round")
	}
	a.syncMu.Lock()
	synced := a.syncedSeq
	a.syncMu.Unlock()
	if synced != 1 {
		t.Errorf("waited append returned with syncedSeq %d, want 1", synced)
	}
	if got := mWaitedSyncs.Value() - before; got != 1 {
		t.Errorf("waited syncs advanced by %d, want 1", got)
	}

	select {
	case err := <-unwaited:
		t.Fatalf("unwaited append returned (%v) while its round was stuck", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-unwaited; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWaitedAppendBesideARound times one file's durable append
// while a goroutine keeps a second file of the same Store appending
// unwaited, so a device round is nearly always in flight: waited=false
// queues behind it, waited=true fsyncs at once.
func BenchmarkWaitedAppendBesideARound(b *testing.B) {
	for _, waited := range []bool{false, true} {
		b.Run(fmt.Sprintf("waited=%v", waited), func(b *testing.B) {
			st, err := NewStore(b.TempDir(), true)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			timed, err := st.VB(0)
			if err != nil {
				b.Fatal(err)
			}
			busy, err := st.VB(1)
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := []Record{rec("busy", 0, "v")}
				for i := 1; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					batch[0].Seqno = uint64(i)
					if err := busy.Append(batch); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			defer func() { close(stop); wg.Wait() }()

			batch := []Record{rec("timed", 0, "v")}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch[0].Seqno = uint64(i + 1)
				if err := timed.Append(batch, waited); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// TestCloseWaitsForTheFsync: a file closed (a GSI partition's shutdown
// or DROP INDEX) while a Sync's fsync is in flight closes the
// descriptor only after that fsync returns, so the fsync succeeds on an
// open file. A Sync that Close overtook is ErrClosed.
func TestCloseWaitsForTheFsync(t *testing.T) {
	v, err := Open(filepath.Join(t.TempDir(), "idx.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Append([]Record{rec("a", 1, "v")}); err != nil {
		t.Fatal(err)
	}
	// Pose as a device round in flight, so the Sync's leader fsync
	// queues behind it.
	s := NewSyncer()
	s.syncing = true
	v.syncer = s
	synced := make(chan error, 1)
	go func() { synced <- v.Sync() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		queued := len(s.pending)
		s.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the Sync never reached its fsync")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- v.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the fsync was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	s.mu.Lock()
	s.syncing = false
	s.cond.Broadcast()
	s.mu.Unlock()
	if err := <-synced; err != nil {
		t.Errorf("the fsync in flight: %v", err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}

	// A batch Close overtook never becomes durable: its Sync says so.
	w, err := Open(filepath.Join(t.TempDir(), "idx.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]Record{rec("a", 1, "v")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != ErrClosed {
		t.Errorf("Sync of a batch appended before Close = %v, want ErrClosed", err)
	}
}
