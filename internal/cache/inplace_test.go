package cache

import (
	"context"
	"testing"
)

// entry is the table's own *Item under key, nil when the key has none.
func entry(h *HashTable, key string) *Item {
	st := h.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.items[key]
}

// TestOverwriteKeepsTheItem: whatever a mutation does to a key that is
// in the table (live → live, live → tombstone, tombstone → live,
// evicted → resident), the key's Item stays the one its first install
// allocated, and the revision sequence is what it was when every
// mutation boxed a new Item: RevSeqno and seqno up by one, a new CAS.
// An overwriting Set and an overwriting ApplyMeta allocate nothing.
func TestOverwriteKeepsTheItem(t *testing.T) {
	h := NewHashTable()
	const key = "doc"
	now := int64(100)
	must := func(_ Item, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.Set(bg, key, []byte(`{"n":0}`), 0, 0, 0, now))
	first := entry(h, key)

	steps := []struct {
		name string
		do   func()
		// revs is how many revisions the step adds (a lazy expiry is one
		// of its own before the write that found it).
		revs uint64
	}{
		{"Set", func() { must(h.Set(bg, key, []byte(`{"n":1}`), 7, 0, 0, now)) }, 1},
		{"Replace", func() { must(h.Replace(bg, key, []byte(`{"n":2}`), 0, 0, 0, now)) }, 1},
		{"Delete", func() { must(h.Delete(bg, key, 0, now)) }, 1},
		{"Add over the tombstone", func() { must(h.Add(bg, key, []byte(`{"n":3}`), 0, now+5, now)) }, 1},
		{"expiry on Get", func() {
			now += 10
			if _, err := h.Get(key, now); err != ErrKeyNotFound {
				t.Fatalf("Get of an expired document: %v", err)
			}
		}, 1},
		{"Set over the expiry's tombstone", func() { must(h.Set(bg, key, []byte(`{"n":4}`), 0, now+5, 0, now)) }, 1},
		{"expiry on Set", func() {
			now += 10
			must(h.Set(bg, key, []byte(`{"n":5}`), 0, 0, 0, now))
		}, 2},
		{"Touch", func() { must(h.Touch(bg, key, now+1000, now, Fetched{})) }, 1},
		{"Append", func() { must(h.Append(bg, key, []byte(" "), 0, now, Fetched{})) }, 1},
		{"SubdocSet", func() { must(h.SubdocSet(bg, key, "m", 1.0, 0, now, Fetched{})) }, 1},
		{"GetAndLock then Set with the token", func() {
			locked, err := h.GetAndLock(key, 15, now, Fetched{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Set(bg, key, []byte(`{}`), 0, 0, 0, now); err != ErrLocked {
				t.Fatalf("Set of a locked document without its token: %v", err)
			}
			must(h.Set(bg, key, []byte(`{"n":6}`), 0, 0, locked.CAS, now))
			if _, err := h.GetAndLock(key, 15, now, Fetched{}); err != nil {
				t.Fatalf("the token's Set did not release the lock: %v", err)
			}
			must(h.Set(bg, key, []byte(`{"n":7}`), 0, 0, entry(h, key).CAS, now))
		}, 2},
		{"GetWith the fetched revision", func() {
			if h.EvictValue(key) == 0 {
				t.Fatal("nothing evicted")
			}
			seqno := entry(h, key).Seqno
			if _, err := h.GetWith(key, now, Fetched{}); err != ErrValueEvicted {
				t.Fatalf("Get of an evicted value: %v", err)
			}
			if it, err := h.GetWith(key, now, Fetched{Seqno: seqno, Value: []byte(`{"n":7}`)}); err != nil || !it.Resident {
				t.Fatalf("Get with the fetched value: %+v, %v", it, err)
			}
		}, 0},
		{"Set over an evicted value", func() {
			h.EvictValue(key)
			must(h.Set(bg, key, []byte(`{"n":8}`), 0, 0, 0, now))
		}, 1},
	}
	for _, step := range steps {
		before := *entry(h, key)
		step.do()
		it := entry(h, key)
		if it != first {
			t.Fatalf("%s: the key's Item moved from %p to %p", step.name, first, it)
		}
		if it.RevSeqno != before.RevSeqno+step.revs || it.Seqno != before.Seqno+step.revs {
			t.Fatalf("%s: rev %d → %d, seqno %d → %d, want %d more of each", step.name, before.RevSeqno, it.RevSeqno, before.Seqno, it.Seqno, step.revs)
		}
		if step.revs > 0 && it.CAS <= before.CAS {
			t.Fatalf("%s: CAS %d → %d", step.name, before.CAS, it.CAS)
		}
		checkResidency(t, h, step.name)
	}

	// The metadata-carrying installs keep the entry too, whichever way
	// they flip it.
	seqno := h.HighSeqno()
	for _, deleted := range []bool{false, true, true, false} {
		seqno++
		h.ApplyMeta(bg, Item{Key: key, Value: []byte(`{}`), CAS: NextCAS(), RevSeqno: 50, Seqno: seqno, Deleted: deleted})
		if it := entry(h, key); it != first || it.Deleted != deleted || it.Seqno != seqno {
			t.Fatalf("ApplyMeta(deleted=%v): entry %p (first %p): %+v", deleted, it, first, *it)
		}
		checkResidency(t, h, "ApplyMeta")
	}
	for i, deleted := range []bool{true, false} {
		if !h.ApplyRemote(bg, key, []byte(`{}`), deleted, NextCAS(), uint64(60+i), 0, 0) {
			t.Fatal("ApplyRemote of a newer revision lost")
		}
		if it := entry(h, key); it != first || it.Deleted != deleted || it.RevSeqno != uint64(60+i) {
			t.Fatalf("ApplyRemote(deleted=%v): entry %p (first %p): %+v", deleted, it, first, *it)
		}
		checkResidency(t, h, "ApplyRemote")
	}
	if st := h.Stats(); st.Items != 1 || st.Tombstones != 0 || st.NonResident != 0 || st.MemUsed != first.memSize() {
		t.Fatalf("one live resident document of %d bytes, but Stats() = %+v", first.memSize(), st)
	}

	// With an observer wired as the vBucket layer wires one.
	var seen uint64
	h.OnMutate(func(_ context.Context, it Item) { seen = it.Seqno })
	value := make([]byte, 1024)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := h.Set(bg, key, value, 0, 0, 0, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("an overwriting Set allocates %.1f times, want 0", n)
	}
	rev := Item{Key: key, Value: value, RevSeqno: 99}
	if n := testing.AllocsPerRun(1000, func() {
		rev.Seqno, rev.CAS = h.HighSeqno()+1, NextCAS()
		h.ApplyMeta(bg, rev)
	}); n != 0 {
		t.Errorf("an overwriting ApplyMeta allocates %.1f times, want 0", n)
	}
	if entry(h, key) != first || seen != h.HighSeqno() {
		t.Fatalf("after the measured overwrites: entry %p (first %p), observer at %d of %d", entry(h, key), first, seen, h.HighSeqno())
	}

	// Full eviction is what ends the address's tenure: the key leaves
	// the table, and coming back is a first install.
	if !h.EvictItem(key, h.HighSeqno(), now) || entry(h, key) != nil {
		t.Fatal("EvictItem left the key in the table")
	}
}

// TestSnapshotOutlivesOverwrite: what the table hands out (a read's
// Item, a mutation's, the observer's) is a revision by value; the
// overwrite that follows changes the table's Item and none of them.
func TestSnapshotOutlivesOverwrite(t *testing.T) {
	h := NewHashTable()
	var observed []Item
	h.OnMutate(func(_ context.Context, it Item) { observed = append(observed, it) })
	const key = "doc"
	set, err := h.Set(bg, key, []byte("one"), 3, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := h.GetMeta(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Set(bg, key, []byte("two"), 4, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(bg, key, []byte("!"), 0, 0, Fetched{}); err != nil {
		t.Fatal(err)
	}
	tomb, err := h.Delete(bg, key, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Set(bg, key, []byte("three"), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]Item{"Set's result": set, "Get's": got, "GetMeta's": meta, "the observer's": observed[0]} {
		if string(snap.Value) != "one" || snap.CAS != set.CAS || snap.Seqno != 1 || snap.RevSeqno != 1 || snap.Flags != 3 || snap.Deleted {
			t.Errorf("%s snapshot of the first revision after four overwrites: %+v", name, snap)
		}
	}
	if !tomb.Deleted || tomb.Seqno != 4 || tomb.Value != nil || !observed[3].Deleted || observed[3].CAS != tomb.CAS {
		t.Errorf("the tombstone's snapshot after the Set over it: %+v (observer's %+v)", tomb, observed[3])
	}
	for i, it := range observed {
		if it.Seqno != uint64(i+1) || it.slot != 0 {
			t.Errorf("the observer's mutation %d: seqno %d, slot %d", i, it.Seqno, it.slot)
		}
	}
	if string(observed[2].Value) != "two!" || string(observed[1].Value) != "two" {
		t.Errorf("the observer's copies of revisions 2 and 3: %q, %q", observed[1].Value, observed[2].Value)
	}
}
