package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// randomBatches draws append batches that overwrite, delete and leave
// values empty, with seqnos rising across them.
func randomBatches(rng *rand.Rand) [][]Record {
	var seqno uint64
	batches := make([][]Record, 1+rng.Intn(12))
	for b := range batches {
		batches[b] = make([]Record, 1+rng.Intn(20))
		for i := range batches[b] {
			seqno++
			r := Record{Meta: Meta{
				Key: fmt.Sprintf("k%02d", rng.Intn(25)), Seqno: seqno, CAS: rng.Uint64(),
				RevSeqno: uint64(rng.Intn(9)), Flags: rng.Uint32(), Expiry: rng.Int63() - rng.Int63(),
			}}
			switch rng.Intn(6) {
			case 0:
				r.Deleted = true
			case 1: // empty value
			default:
				r.Value = make([]byte, 1+rng.Intn(300))
				rng.Read(r.Value)
			}
			batches[b][i] = r
		}
	}
	return batches
}

// referenceCompact is the compaction this package had before records
// were copied as bytes: every record decoded, each key's newest kept,
// in seqno order, and encoded again.
func referenceCompact(t *testing.T, file []byte) []byte {
	t.Helper()
	newest := map[string]Record{}
	for off := 0; off < len(file); {
		r, n, ok := decodeRecord(file[off:])
		if !ok {
			t.Fatalf("reference: bad record at offset %d", off)
		}
		newest[r.Key] = r
		off += n
	}
	live := make([]Record, 0, len(newest))
	for _, r := range newest {
		live = append(live, r)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Seqno < live[j].Seqno })
	var out []byte
	for i := range live {
		out = encodeRecord(out, &live[i])
	}
	return out
}

// TestFileBytesAreTheRecords pins the format from both ends: the same
// batches in give the same file bytes out, for append (the records
// encoded one after the other, whatever buffer Append reuses) and for
// compaction (byte for byte what decoding and re-encoding every live
// record wrote), and the compacted file recovers to the same documents.
func TestFileBytesAreTheRecords(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "vb.couch")
		v, err := Open(path, false)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, batch := range randomBatches(rng) {
			for i := range batch {
				want = encodeRecord(want, &batch[i])
			}
			if err := v.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: appended file differs from its records encoded in order (%d bytes against %d)", seed, len(got), len(want))
		}

		want = referenceCompact(t, got)
		if err := v.Compact(); err != nil {
			t.Fatal(err)
		}
		if got, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: compacted file differs from the decode-and-encode reference (%d bytes against %d)", seed, len(got), len(want))
		}
		st := v.Stats()
		if st.FileBytes != int64(len(want)) || st.LiveBytes != st.FileBytes {
			t.Fatalf("seed %d: stats after compaction %+v, file is %d bytes", seed, st, len(want))
		}
		// The swapped-in index serves what a recovery of the file would.
		v.Close()
		if v, err = Open(path, false); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(want); {
			r, n, _ := decodeRecord(want[off:])
			off += n
			newest, err := v.GetNewest(r.Key)
			if err != nil || newest.Meta != r.Meta {
				t.Fatalf("seed %d: %s recovered as %+v, %v; want %+v", seed, r.Key, newest.Meta, err, r.Meta)
			}
			if got, err := v.Get(r.Key); r.Deleted != (err == ErrNotFound) || !r.Deleted && !bytes.Equal(got.Value, r.Value) {
				t.Fatalf("seed %d: Get(%s) = %q, %v; want %q", seed, r.Key, got.Value, err, r.Value)
			}
		}
		v.Close()
	}
}

// TestCompactRefusesCorruptRecord: compaction copies bytes, so it checks
// them; a live record that no longer passes its CRC fails the
// compaction and leaves the file as it was.
func TestCompactRefusesCorruptRecord(t *testing.T) {
	v := openTemp(t)
	if err := v.Append([]Record{rec("a", 1, "first"), rec("b", 2, "second")}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(v.path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), before...)
	flipped[headerSize+2] ^= 0xFF // inside a's value
	if err := os.WriteFile(v.path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := v.Compact(); err == nil {
		t.Fatal("compaction copied a record whose CRC does not hold")
	}
	if after, _ := os.ReadFile(v.path); !bytes.Equal(after, flipped) {
		t.Fatal("a failed compaction changed the file")
	}
	if got, err := v.Get("b"); err != nil || string(got.Value) != "second" {
		t.Fatalf("Get(b) after the failed compaction = %q, %v", got.Value, err)
	}
}

// TestOpensFileWrittenByParentCommit: testdata/written_by_pr25.couch was
// appended by the commit before Append kept its encode buffer (three
// batches: an overwrite, a tombstone, an empty value and a binary one).
// It must open, serve, and take further appends and a compaction.
func TestOpensFileWrittenByParentCommit(t *testing.T) {
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
	if st := v.Stats(); st.Items != 4 || st.HighSeqno != 6 || st.FileBytes != int64(len(old)) {
		t.Fatalf("stats of the old file: %+v", st)
	}
	if got, err := v.Get("alpha"); err != nil || string(got.Value) != `{"n": 4, "again": true}` || got.Seqno != 4 {
		t.Fatalf("alpha = %+v, %v", got, err)
	}
	if _, err := v.Get("beta"); err != ErrNotFound {
		t.Fatalf("tombstoned beta: %v", err)
	}
	if got, err := v.Get("gamma"); err != nil || got.Value != nil {
		t.Fatalf("gamma = %+v, %v", got, err)
	}
	if got, err := v.Get("delta"); err != nil || !bytes.Equal(got.Value, []byte{0, 1, 2, 0xC7, 0xFF}) || got.Flags != 0xDEAD || got.Expiry != -1 {
		t.Fatalf("delta = %+v, %v", got, err)
	}
	if err := v.Append([]Record{rec("epsilon", 7, "new")}); err != nil {
		t.Fatal(err)
	}
	now, _ := os.ReadFile(path)
	if !bytes.HasPrefix(now, old) {
		t.Fatal("an append rewrote bytes the parent commit wrote")
	}
	if err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, referenceCompact(t, now)) {
		t.Fatal("compacting the old file differs from the reference")
	}
}

func appendBatch(keys int) []Record {
	batch := make([]Record, keys)
	for i := range batch {
		batch[i] = Record{Meta: Meta{Key: fmt.Sprintf("user%06d", i), CAS: 1, RevSeqno: 1}, Value: make([]byte, 1024)}
	}
	return batch
}

// TestAppendSteadyStateAllocs: once a file has seen a batch of this
// size, appending another allocates nothing: one encode buffer per
// file, no per-call offsets, the index updated in place.
func TestAppendSteadyStateAllocs(t *testing.T) {
	v := openTemp(t)
	batch := appendBatch(16)
	var seqno uint64
	appendOnce := func() {
		for i := range batch {
			seqno++
			batch[i].Seqno = seqno
		}
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	appendOnce()
	if n := testing.AllocsPerRun(200, appendOnce); n != 0 {
		t.Errorf("a warmed Append of 16 records allocates %.1f times, want 0", n)
	}
}

// TestGetAllocatesOnce: a background fetch reads the record into one
// buffer and hands out its value; the key is the index's.
func TestGetAllocatesOnce(t *testing.T) {
	v := openTemp(t)
	if err := v.Append(appendBatch(4)); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if r, err := v.Get("user000002"); err != nil || len(r.Value) != 1024 || r.Key != "user000002" {
			t.Fatal(r.Key, len(r.Value), err)
		}
	})
	if n != 1 {
		t.Errorf("Get allocates %.1f times per fetch, want 1", n)
	}
}

// BenchmarkAppendBatch is the flusher's call: one 16-record batch of
// 1 KiB values into a warmed file (B/op is the thing to watch).
func BenchmarkAppendBatch(b *testing.B) {
	v, err := Open(filepath.Join(b.TempDir(), "vb.couch"), false)
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	batch := appendBatch(16)
	b.ReportAllocs()
	b.SetBytes(16 * int64(headerSize+10+1024+4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Seqno = uint64(i*16 + j + 1)
		}
		if err := v.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}
