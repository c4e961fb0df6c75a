package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// valueFor is the value a self-checking test stores under key at seqno:
// a reader that holds a record can tell whether its value belongs to it.
func valueFor(key string, seqno uint64, size int) []byte {
	v := bytes.Repeat([]byte(fmt.Sprintf("%s@%d|", key, seqno)), size/(len(key)+3)+1)
	return v[:size]
}

// runModel drives one file with random appends (new keys, overwrites,
// deletes, several to a batch), compactions and reopens, and after each
// step reads every key back against a map of what the newest record
// must be. It reports how often a read found the file grown past its
// mapping and mapped it again.
func runModel(t *testing.T, seed int64, steps int) (remaps int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vb.couch")
	v, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { v.Close() }()
	rng := rand.New(rand.NewSource(seed))
	model := map[string]Record{}
	var seqno uint64
	for step := 0; step < steps; step++ {
		window := len(v.mapped)
		what := "append"
		switch n := rng.Intn(20); {
		case n == 0:
			what = "compact"
			if err := v.Compact(); err != nil {
				t.Fatal(err)
			}
			window = 0
		case n == 1:
			what = "reopen"
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			if v, err = Open(path, false); err != nil {
				t.Fatal(err)
			}
			window = 0
		default:
			batch := make([]Record, 1+rng.Intn(4))
			for i := range batch {
				seqno++
				key := fmt.Sprintf("k%02d", rng.Intn(16))
				r := Record{Meta: Meta{Key: key, Seqno: seqno, CAS: rng.Uint64(), RevSeqno: seqno, Flags: rng.Uint32()}}
				switch rng.Intn(8) {
				case 0:
					r.Deleted = true
				case 1: // empty value
				default:
					r.Value = valueFor(key, seqno, 1+rng.Intn(96<<10))
				}
				batch[i] = r
				model[key] = r
			}
			if err := v.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		for key, want := range model {
			got, err := v.GetNewest(key)
			if err != nil || got.Meta != want.Meta || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("seed %d step %d (%s): %s = %+v (%d bytes), %v; want %+v (%d bytes)",
					seed, step, what, key, got.Meta, len(got.Value), err, want.Meta, len(want.Value))
			}
			if _, err := v.Get(key); want.Deleted != (err == ErrNotFound) {
				t.Fatalf("seed %d step %d (%s): Get(%s) of deleted=%v: %v", seed, step, what, key, want.Deleted, err)
			}
		}
		if window != 0 && len(v.mapped) > window {
			remaps++
		}
	}
	if st := v.Stats(); st.Items != len(model) || st.HighSeqno != seqno {
		t.Fatalf("seed %d: stats %+v after %d keys up to seqno %d", seed, st, len(model), seqno)
	}
	return remaps
}

// TestMappedReadsAgainstModel: reads served from the mapping agree with
// the model across growth past the window, compaction and reopen.
func TestMappedReadsAgainstModel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no mapping on this platform; TestReadFallsBackWithoutAMapping covers its reads")
	}
	before := mReadsUnmapped.Value()
	remaps := 0
	for seed := int64(1); seed <= 3; seed++ {
		remaps += runModel(t, seed, 150)
	}
	if remaps < 3 {
		t.Errorf("the files outgrew their mapping %d times, want at least 3", remaps)
	}
	if n := mReadsUnmapped.Value() - before; n != 0 {
		t.Errorf("%d reads took the ReadAt path although the file maps", n)
	}
}

// TestReadFallsBackWithoutAMapping runs the same model with mapping
// refused: every read is a ReadAt, counted.
func TestReadFallsBackWithoutAMapping(t *testing.T) {
	real := mapFile
	mapFile = func(*os.File, int64) ([]byte, error) { return nil, errors.New("mmap refused") }
	t.Cleanup(func() { mapFile = real })
	before := mReadsUnmapped.Value()
	if remaps := runModel(t, 1, 150); remaps != 0 {
		t.Errorf("%d remaps of a file that cannot be mapped", remaps)
	}
	if mReadsUnmapped.Value() == before {
		t.Error("couchgo_storage_reads_unmapped_total did not move")
	}
}

// TestOldFileReadsBackIdentically: every newest record of the file the
// commit before PR 26 wrote comes back as the bytes on disk say, mapped.
func TestOldFileReadsBackIdentically(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "written_by_pr25.couch"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vb.couch")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	newest := map[string]Record{}
	for off := 0; off < len(old); {
		r, n, ok := decodeRecord(old[off:])
		if !ok {
			t.Fatalf("bad record at offset %d", off)
		}
		newest[r.Key] = r
		off += n
	}
	for key, want := range newest {
		if want.Deleted {
			want.Value = nil // a tombstone comes back as its metadata
		}
		if got, err := v.GetNewest(key); err != nil || got.Meta != want.Meta || !bytes.Equal(got.Value, want.Value) {
			t.Errorf("%s = %+v, %v; the file holds %+v", key, got, err, want)
		}
	}
}

// TestMappedReadsUnderWriters: readers, a flusher-style appender and a
// compactor share one file while it outgrows its mapping; every record
// a reader gets is whole and of one revision. Run it under -race.
func TestMappedReadsUnderWriters(t *testing.T) {
	v := openTemp(t)
	const keys, batches = 32, 600
	var first []Record
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%02d", i)
		first = append(first, Record{Meta: Meta{Key: key, Seqno: uint64(i + 1), CAS: uint64(i + 1)}, Value: valueFor(key, uint64(i+1), 100)})
	}
	if err := v.Append(first); err != nil {
		t.Fatal(err)
	}
	compactions := mCompactions.Value()
	var appended atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // appender: 8 records a batch, about 20 MB in all
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		seqno := uint64(keys)
		for b := 0; b < batches; b++ {
			batch := make([]Record, 8)
			for i := range batch {
				seqno++
				key := fmt.Sprintf("k%02d", rng.Intn(keys))
				batch[i] = Record{Meta: Meta{Key: key, Seqno: seqno, CAS: seqno}, Value: valueFor(key, seqno, 1+rng.Intn(8<<10))}
			}
			if err := v.Append(batch); err != nil {
				t.Error(err)
				return
			}
			appended.Store(seqno)
		}
	}()
	wg.Add(1)
	go func() { // compactor: lets the file cross two windows (1 and 4 MiB) first
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if v.Stats().FileBytes < 5<<20 {
				runtime.Gosched()
				continue
			}
			if err := v.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				key := fmt.Sprintf("k%02d", rng.Intn(keys))
				got, err := v.Get(key)
				if err != nil || got.CAS != got.Seqno || !bytes.Equal(got.Value, valueFor(key, got.Seqno, len(got.Value))) {
					t.Errorf("Get(%s) = seqno %d cas %d, %d bytes, %v: not one whole revision", key, got.Seqno, got.CAS, len(got.Value), err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if n := mCompactions.Value() - compactions; n < 2 {
		t.Errorf("%d compactions ran beside the readers, want a few", n)
	}
	if err := v.ScanBySeqno(0, appended.Load(), func(r Record) bool {
		if !bytes.Equal(r.Value, valueFor(r.Key, r.Seqno, len(r.Value))) {
			t.Errorf("scan: %s@%d holds another record's value", r.Key, r.Seqno)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultBecomesAnError: the file is cut short underneath an open
// VBFile. Reading a record past the cut is an error, not the end of the
// process, and the file goes on taking and serving new records.
func TestFaultBecomesAnError(t *testing.T) {
	v := openTemp(t)
	var batch []Record
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k%02d", i)
		batch = append(batch, Record{Meta: Meta{Key: key, Seqno: uint64(i + 1)}, Value: valueFor(key, uint64(i+1), 8<<10)})
	}
	if err := v.Append(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get("k15"); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(v.path, 4096); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k15", "k08", "k00"} { // pages beyond the cut, and the one it runs through
		if got, err := v.Get(key); err == nil {
			t.Fatalf("Get(%s) past the cut returned %d bytes and no error", key, len(got.Value))
		}
	}
	fresh := Record{Meta: Meta{Key: "fresh", Seqno: 17}, Value: valueFor("fresh", 17, 8<<10)}
	if err := v.Append([]Record{fresh}); err != nil {
		t.Fatal(err)
	}
	if got, err := v.Get("fresh"); err != nil || !bytes.Equal(got.Value, fresh.Value) {
		t.Fatalf("Get of a record appended after the cut: %d bytes, %v", len(got.Value), err)
	}
	if _, err := v.Get("k15"); err == nil { // now a hole the append left: zeroes, no fault
		t.Fatal("Get(k15) read a record out of a hole")
	}
}

// BenchmarkGetMapped is a background fetch's storage call: one 1 KiB
// record out of a warmed file (1 allocation, the value's).
func BenchmarkGetMapped(b *testing.B) {
	v, err := Open(filepath.Join(b.TempDir(), "vb.couch"), false)
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	if err := v.Append(appendBatch(16)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := v.Get("user000007"); err != nil || len(r.Value) != 1024 {
			b.Fatal(len(r.Value), err)
		}
	}
}
