package events

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestPublishAssignsMonotoneSeq(t *testing.T) {
	j := NewJournal(8)
	var last uint64
	for i := 0; i < 5; i++ {
		e := j.Publish(New(Topology, SevInfo, "x"))
		if e.Seq <= last {
			t.Fatalf("seq not monotone: %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	if j.LastSeq() != last {
		t.Fatalf("LastSeq = %d, want %d", j.LastSeq(), last)
	}
}

func TestRingBoundedPerType(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Publish(New(VBucket, SevInfo, "vb"))
	}
	// A storm of vbucket events must not evict the lone feed event.
	feedEv := j.Publish(New(FeedEvent, SevWarn, "stall"))
	for i := 0; i < 10; i++ {
		j.Publish(New(VBucket, SevInfo, "vb"))
	}
	got := j.Events(Filter{Type: VBucket})
	if len(got) != 4 {
		t.Fatalf("vbucket ring holds %d, want 4", len(got))
	}
	// Ring keeps the newest: the oldest surviving seq must be from the
	// final storm.
	if got[0].Seq <= feedEv.Seq {
		t.Fatalf("ring did not overwrite oldest: first seq %d <= %d", got[0].Seq, feedEv.Seq)
	}
	fe := j.Events(Filter{Type: FeedEvent})
	if len(fe) != 1 || fe[0].Seq != feedEv.Seq {
		t.Fatalf("feed event lost: %+v", fe)
	}
}

func TestEventsFiltering(t *testing.T) {
	j := NewJournal(16)
	a := j.Publish(New(Topology, SevInfo, "a"))
	b := j.Publish(New(FeedEvent, SevWarn, "b"))
	c := j.Publish(New(Health, SevCritical, "c"))

	if got := j.Events(Filter{}); len(got) != 3 {
		t.Fatalf("all: got %d events", len(got))
	}
	got := j.Events(Filter{MinSeverity: SevWarn})
	if len(got) != 2 || got[0].Seq != b.Seq || got[1].Seq != c.Seq {
		t.Fatalf("severity filter: %+v", got)
	}
	got = j.Events(Filter{SinceSeq: a.Seq})
	if len(got) != 2 || got[0].Seq != b.Seq {
		t.Fatalf("since filter: %+v", got)
	}
	got = j.Events(Filter{Limit: 2})
	if len(got) != 2 || got[0].Seq != b.Seq || got[1].Seq != c.Seq {
		t.Fatalf("limit keeps newest: %+v", got)
	}
	if got := j.Events(Filter{Type: DCP}); len(got) != 0 {
		t.Fatalf("empty type: %+v", got)
	}
}

func TestSubscribeFanOutAndDrops(t *testing.T) {
	j := NewJournal(16)
	fast := j.Subscribe(8)
	defer fast.Close()
	slow := j.Subscribe(1)
	defer slow.Close()

	for i := 0; i < 4; i++ {
		j.Publish(New(Config, SevInfo, "change"))
	}
	if got := len(fast.C()); got != 4 {
		t.Fatalf("fast subscriber buffered %d, want 4", got)
	}
	// slow has buffer 1: first event delivered, three dropped.
	if got := len(slow.C()); got != 1 {
		t.Fatalf("slow subscriber buffered %d, want 1", got)
	}
	st := j.Stats()
	if st.Dropped != 3 || st.Published != 4 || st.Subscribers != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// After Close the subscription no longer receives (or drops).
	slow.Close()
	j.Publish(New(Config, SevInfo, "late"))
	if st := j.Stats(); st.Dropped != 3 || st.Subscribers != 1 {
		t.Fatalf("closed subscriber still counted: %+v", st)
	}
}

func TestPublishConcurrent(t *testing.T) {
	j := NewJournal(32)
	sub := j.Subscribe(4) // deliberately small: forces drop accounting under race
	defer sub.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.Publish(New(SlowOp, SevWarn, "op"))
			}
		}()
	}
	wg.Wait()
	st := j.Stats()
	if st.Published != 400 {
		t.Fatalf("published %d, want 400", st.Published)
	}
	if st.LastSeq != 400 {
		t.Fatalf("last seq %d, want 400", st.LastSeq)
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	e := New(Durability, SevCritical, "timeout")
	e.VB = 7
	e.TraceID = 99
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Severity != SevCritical || back.VB != 7 || back.TraceID != 99 {
		t.Fatalf("round trip: %+v", back)
	}
	if _, ok := ParseSeverity("nope"); ok {
		t.Fatal("ParseSeverity accepted junk")
	}
	var s Severity
	if err := s.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("UnmarshalJSON accepted junk")
	}
}

func TestValidType(t *testing.T) {
	for _, typ := range Types() {
		if !ValidType(typ) {
			t.Fatalf("ValidType(%q) = false", typ)
		}
	}
	if ValidType("nonsense") {
		t.Fatal("ValidType accepted junk")
	}
}
