package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func openTemp(t *testing.T) *VBFile {
	t.Helper()
	v, err := Open(filepath.Join(t.TempDir(), "vb_0000.couch"), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func rec(key string, seqno uint64, val string) Record {
	return Record{
		Meta:  Meta{Key: key, Seqno: seqno, CAS: seqno * 10, RevSeqno: seqno, Flags: 3, Expiry: 0},
		Value: []byte(val),
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	v := openTemp(t)
	if err := v.Append([]Record{rec("a", 1, "va"), rec("b", 2, "vb")}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "va" || got.Seqno != 1 || got.CAS != 10 || got.Flags != 3 {
		t.Errorf("got %+v", got)
	}
	if _, err := v.Get("missing"); err != ErrNotFound {
		t.Errorf("missing key: %v", err)
	}
}

func TestNewestVersionWins(t *testing.T) {
	v := openTemp(t)
	v.Append([]Record{rec("k", 1, "old")})
	v.Append([]Record{rec("k", 2, "new")})
	got, _ := v.Get("k")
	if string(got.Value) != "new" {
		t.Errorf("value = %q", got.Value)
	}
	st := v.Stats()
	if st.Items != 1 || st.HighSeqno != 2 {
		t.Errorf("stats: %+v", st)
	}
	if v.Stats().Fragmentation() <= 0 {
		t.Error("overwrite should create fragmentation")
	}
}

func TestTombstones(t *testing.T) {
	v := openTemp(t)
	v.Append([]Record{rec("k", 1, "v")})
	del := rec("k", 2, "")
	del.Deleted = true
	v.Append([]Record{del})
	if _, err := v.Get("k"); err != ErrNotFound {
		t.Errorf("deleted key should be not found: %v", err)
	}
	tomb, err := v.GetNewest("k")
	if err != nil || !tomb.Deleted || tomb.Seqno != 2 {
		t.Errorf("tombstone meta: %+v %v", tomb.Meta, err)
	}
}

func TestRecoveryAfterReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vb.couch")
	v, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v.Append([]Record{rec(fmt.Sprintf("k%02d", i), uint64(i+1), fmt.Sprintf("v%d", i))})
	}
	v.Close()

	v2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.HighSeqno() != 50 {
		t.Errorf("recovered high seqno = %d", v2.HighSeqno())
	}
	got, err := v2.Get("k17")
	if err != nil || string(got.Value) != "v17" {
		t.Errorf("recovered doc: %+v %v", got, err)
	}
	// Appends continue after recovery.
	if err := v2.Append([]Record{rec("new", 51, "nv")}); err != nil {
		t.Fatal(err)
	}
	got, _ = v2.Get("new")
	if string(got.Value) != "nv" {
		t.Error("append after recovery failed")
	}
}

func TestCrashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vb.couch")
	v, _ := Open(path, false)
	v.Append([]Record{rec("good", 1, "v1"), rec("good2", 2, "v2")})
	v.Close()

	// Simulate a torn write: append garbage / half a record.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{recordMagic, 0, 5, 0}) // half a header
	f.Close()

	v2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.HighSeqno() != 2 {
		t.Errorf("high seqno after recovery = %d", v2.HighSeqno())
	}
	if _, err := v2.Get("good"); err != nil {
		t.Error("valid prefix lost in recovery")
	}
	// The file was truncated; new appends decode cleanly after reopen.
	v2.Append([]Record{rec("post", 3, "pv")})
	v2.Close()
	v3, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	if got, err := v3.Get("post"); err != nil || string(got.Value) != "pv" {
		t.Errorf("post-recovery append lost: %v", err)
	}
}

func TestCorruptMiddleRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vb.couch")
	v, _ := Open(path, false)
	v.Append([]Record{rec("a", 1, "va")})
	off := v.Stats().FileBytes
	v.Append([]Record{rec("b", 2, "vb")})
	v.Close()

	// Flip a byte inside the second record's body.
	f, _ := os.OpenFile(path, os.O_WRONLY, 0)
	f.WriteAt([]byte{0xFF}, off+headerSize)
	f.Close()

	v2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if _, err := v2.Get("a"); err != nil {
		t.Error("record before corruption should survive")
	}
	if _, err := v2.Get("b"); err != ErrNotFound {
		t.Error("corrupt record should be dropped")
	}
}

func TestScanBySeqno(t *testing.T) {
	v := openTemp(t)
	v.Append([]Record{rec("a", 1, "v1"), rec("b", 2, "v2"), rec("c", 3, "v3")})
	v.Append([]Record{rec("a", 4, "v4")}) // supersedes seqno 1
	var seen []uint64
	err := v.ScanBySeqno(0, 100, func(r Record) bool {
		seen = append(seen, r.Seqno)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only latest versions, in seqno order: b@2, c@3, a@4.
	want := []uint64{2, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("seen %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen %v, want %v", seen, want)
		}
	}
	// Range restriction.
	seen = nil
	v.ScanBySeqno(2, 3, func(r Record) bool { seen = append(seen, r.Seqno); return true })
	if len(seen) != 1 || seen[0] != 3 {
		t.Errorf("range scan seen %v", seen)
	}
	// Early stop.
	count := 0
	v.ScanBySeqno(0, 100, func(r Record) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestCompactReclaimsSpaceAndPreservesData(t *testing.T) {
	v := openTemp(t)
	for i := 0; i < 10; i++ {
		for ver := 0; ver < 20; ver++ {
			v.Append([]Record{rec(fmt.Sprintf("k%d", i), uint64(i*20+ver+1), fmt.Sprintf("val-%d-%d", i, ver))})
		}
	}
	del := rec("k0", 1000, "")
	del.Deleted = true
	v.Append([]Record{del})

	before := v.Stats()
	frag := v.Stats().Fragmentation()
	if frag < 0.5 {
		t.Fatalf("expected heavy fragmentation, got %v", frag)
	}
	if err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	after := v.Stats()
	if after.FileBytes >= before.FileBytes {
		t.Errorf("compaction did not shrink file: %d -> %d", before.FileBytes, after.FileBytes)
	}
	if v.Stats().Fragmentation() != 0 {
		t.Errorf("fragmentation after compact = %v", v.Stats().Fragmentation())
	}
	// All latest values survive.
	for i := 1; i < 10; i++ {
		got, err := v.Get(fmt.Sprintf("k%d", i))
		if err != nil || string(got.Value) != fmt.Sprintf("val-%d-19", i) {
			t.Errorf("k%d after compact: %+v %v", i, got, err)
		}
	}
	// Tombstone survives compaction (replicas may still need it).
	tomb, err := v.GetNewest("k0")
	if err != nil || !tomb.Deleted {
		t.Errorf("tombstone lost in compaction: %+v %v", tomb.Meta, err)
	}
	// Writes continue after compaction.
	if err := v.Append([]Record{rec("post", 2000, "pv")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Get("post"); string(got.Value) != "pv" {
		t.Error("append after compact failed")
	}
	if after.HighSeqno != before.HighSeqno {
		t.Errorf("compaction changed high seqno %d -> %d", before.HighSeqno, after.HighSeqno)
	}
}

// TestGetAtReadsTheCurrentGeneration: a location read back is honoured
// while the file is the generation it names; after a compaction moved
// the record, the same location reads through the index and hands out
// the record's new place. A location that names another key's record is
// refused, not served.
func TestGetAtReadsTheCurrentGeneration(t *testing.T) {
	v := openTemp(t)
	if err := v.Append([]Record{rec("a", 1, "a1"), rec("a", 2, "a2"), rec("k", 3, "vk")}); err != nil {
		t.Fatal(err)
	}
	got, at, err := v.GetAt("k", Loc{})
	if err != nil || string(got.Value) != "vk" || got.Meta != rec("k", 3, "").Meta || at.gen == 0 {
		t.Fatalf("GetAt(k) = %+v at %+v, %v", got, at, err)
	}
	if again, at2, err := v.GetAt("k", at); err != nil || string(again.Value) != "vk" || at2 != at {
		t.Fatalf("GetAt(k) at its own location = %q at %+v, %v", again.Value, at2, err)
	}
	if _, _, err := v.GetAt("a", at); err == nil {
		t.Error("GetAt(a) at k's location read k's record")
	}
	if err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	moved, now, err := v.GetAt("k", at)
	if err != nil || string(moved.Value) != "vk" || moved.Seqno != 3 {
		t.Fatalf("GetAt(k) at a location of the old generation = %+v, %v", moved, err)
	}
	if now.gen == at.gen || now.off == at.off {
		t.Errorf("after the compaction k is at %+v, was at %+v", now, at)
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vb.couch")
	v, _ := Open(path, false)
	v.Append([]Record{rec("a", 1, "old"), rec("a", 2, "new"), rec("b", 3, "bv")})
	if err := v.Compact(); err != nil {
		t.Fatal(err)
	}
	v.Close()
	v2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if got, err := v2.Get("a"); err != nil || string(got.Value) != "new" {
		t.Errorf("after compact+reopen: %+v %v", got, err)
	}
}

func TestSyncOnWrite(t *testing.T) {
	v, err := Open(filepath.Join(t.TempDir(), "vb.couch"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Append([]Record{rec("k", 1, "v")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Get("k"); string(got.Value) != "v" {
		t.Error("synced write not readable")
	}
}

func TestClosedFileErrors(t *testing.T) {
	v := openTemp(t)
	v.Close()
	if err := v.Append([]Record{rec("k", 1, "v")}); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if _, err := v.Get("k"); err != ErrClosed {
		t.Errorf("get after close: %v", err)
	}
	if err := v.Compact(); err != ErrClosed {
		t.Errorf("compact after close: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyAppendIsNoop(t *testing.T) {
	v := openTemp(t)
	if err := v.Append(nil); err != nil {
		t.Fatal(err)
	}
	if v.Stats().FileBytes != 0 {
		t.Error("empty append wrote bytes")
	}
}

func TestLargeValues(t *testing.T) {
	v := openTemp(t)
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(big)
	r := rec("big", 1, "")
	r.Value = big
	if err := v.Append([]Record{r}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get("big")
	if err != nil || len(got.Value) != len(big) {
		t.Fatalf("big value: %v len=%d", err, len(got.Value))
	}
	for i := range big {
		if got.Value[i] != big[i] {
			t.Fatalf("big value corrupted at %d", i)
		}
	}
}

func TestStoreManagesVBFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(filepath.Join(dir, "data"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f0, err := s.VB(0)
	if err != nil {
		t.Fatal(err)
	}
	f0b, _ := s.VB(0)
	if f0 != f0b {
		t.Error("VB should return the same handle")
	}
	f1, _ := s.VB(1)
	f0.Append([]Record{rec("a", 1, "v")})
	f1.Append([]Record{rec("b", 1, "v")})
	if err := s.DropVB(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "data", "vb_0000.couch")); !os.IsNotExist(err) {
		t.Error("dropped vb file still exists")
	}
	// Dropping an unopened, nonexistent vb is fine.
	if err := s.DropVB(99); err != nil {
		t.Errorf("drop of unknown vb: %v", err)
	}
}

// TestRandomOpsAgainstModel drives the file with random ops and checks
// it against an in-memory model, reopening periodically to exercise
// recovery.
func TestRandomOpsAgainstModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vb.couch")
	v, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	deleted := map[string]bool{}
	r := rand.New(rand.NewSource(42))
	seqno := uint64(0)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("k%02d", r.Intn(30))
		seqno++
		switch r.Intn(10) {
		case 0: // delete
			d := rec(key, seqno, "")
			d.Deleted = true
			if err := v.Append([]Record{d}); err != nil {
				t.Fatal(err)
			}
			delete(model, key)
			deleted[key] = true
		case 1: // compact
			if err := v.Compact(); err != nil {
				t.Fatal(err)
			}
		case 2: // reopen
			v.Close()
			if v, err = Open(path, false); err != nil {
				t.Fatal(err)
			}
		default: // write
			val := fmt.Sprintf("v%d", i)
			if err := v.Append([]Record{rec(key, seqno, val)}); err != nil {
				t.Fatal(err)
			}
			model[key] = val
			delete(deleted, key)
		}
	}
	for key, want := range model {
		got, err := v.Get(key)
		if err != nil || string(got.Value) != want {
			t.Errorf("model mismatch for %s: got %q err %v want %q", key, got.Value, err, want)
		}
	}
	for key := range deleted {
		if _, err := v.Get(key); err != ErrNotFound {
			t.Errorf("deleted key %s resurfaced: %v", key, err)
		}
	}
	v.Close()
}
