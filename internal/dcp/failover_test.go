package dcp

import (
	"errors"
	"fmt"
	"testing"
)

// uuidOf is the producer's current vBucket UUID: its newest failover
// entry's.
func uuidOf(p *Producer) uint64 {
	log := p.FailoverLog()
	return log[len(log)-1].UUID
}

func TestFailoverLogSeedAndTakeover(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()

	log := p.FailoverLog()
	if len(log) != 1 || log[0].Seqno != 0 {
		t.Fatalf("fresh log = %+v, want one entry at seqno 0", log)
	}

	p.Takeover(7)
	log2 := p.FailoverLog()
	if len(log2) != 2 {
		t.Fatalf("log after takeover = %+v, want 2 entries", log2)
	}
	if log2[0] != log[0] {
		t.Fatalf("takeover rewrote history: %+v", log2)
	}
	if log2[1].Seqno != 7 || log2[1].UUID == log[0].UUID {
		t.Fatalf("takeover entry = %+v", log2[1])
	}
	if s := open(t, p, "after", 0); s.StreamUUID() != log2[1].UUID {
		t.Fatalf("a stream opened after takeover carries UUID %d, want %d", s.StreamUUID(), log2[1].UUID)
	}
	if high, err := p.HighSeqno(); high != 7 || err != nil {
		t.Fatalf("HighSeqno() = %d, %v after takeover at 7", high, err)
	}
}

func TestStreamCarriesVBucketUUID(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	s := open(t, p, "c", 0)
	defer s.Close()
	if s.StreamUUID() != uuidOf(p) {
		t.Fatalf("stream UUID %d, producer UUID %d", s.StreamUUID(), uuidOf(p))
	}
}

func TestResumeStreamValidation(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	for i := 1; i <= 10; i++ {
		publish(src, p, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	firstUUID := uuidOf(p)
	// This copy took over at seqno 5: seqnos 6..10 of the first branch
	// are not part of the new lineage.
	p.Takeover(5)
	curUUID := uuidOf(p)

	// A consumer that stopped at 4 on the old branch resumes cleanly.
	s, err := p.ResumeStream("ok", firstUUID, 4)
	if err != nil {
		t.Fatalf("resume within shared history: %v", err)
	}
	s.Close()

	// Exactly at the divergence point is still shared history.
	s, err = p.ResumeStream("edge", firstUUID, 5)
	if err != nil {
		t.Fatalf("resume at divergence point: %v", err)
	}
	s.Close()

	// Past the divergence point: rollback to it.
	_, err = p.ResumeStream("stale", firstUUID, 9)
	var rb *RollbackError
	if !errors.As(err, &rb) {
		t.Fatalf("resume past divergence: %v, want RollbackError", err)
	}
	if rb.Seqno != 5 || rb.UUID != curUUID {
		t.Fatalf("rollback point = %+v, want seqno 5 uuid %d", rb, curUUID)
	}

	// Unknown lineage: nothing past 0 is trustworthy.
	_, err = p.ResumeStream("foreign", 999999, 3)
	if !errors.As(err, &rb) || rb.Seqno != 0 {
		t.Fatalf("resume on unknown uuid: %v, want rollback to 0", err)
	}

	// Current branch resumes without validation trouble.
	s, err = p.ResumeStream("cur", curUUID, 8)
	if err != nil {
		t.Fatalf("resume on current branch: %v", err)
	}
	s.Close()

	// uuid 0 (no recorded history) is trusted unvalidated.
	s, err = p.ResumeStream("fresh", 0, 9)
	if err != nil {
		t.Fatalf("trust-mode resume: %v", err)
	}
	s.Close()
}

func TestSetFailoverLogAdoption(t *testing.T) {
	src := newMemSource()
	active := NewProducer(0, src)
	defer active.Close()
	for i := 1; i <= 6; i++ {
		publish(src, active, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}

	// The replica adopts the active's log; after promotion at seqno 4 it
	// can validate a consumer that streamed from the old active.
	replicaSrc := newMemSource()
	replica := NewProducer(0, replicaSrc)
	defer replica.Close()
	replica.SetFailoverLog(active.FailoverLog())
	if uuidOf(replica) != uuidOf(active) {
		t.Fatalf("replica UUID %d after adoption, want %d", uuidOf(replica), uuidOf(active))
	}
	replica.Takeover(4)

	_, err := replica.ResumeStream("consumer", uuidOf(active), 6)
	var rb *RollbackError
	if !errors.As(err, &rb) || rb.Seqno != 4 {
		t.Fatalf("resume past promoted history: %v, want rollback to 4", err)
	}
	s, err := replica.ResumeStream("consumer", uuidOf(active), 3)
	if err != nil {
		t.Fatalf("resume within promoted history: %v", err)
	}
	s.Close()

	// Empty adoption is ignored.
	replica.SetFailoverLog(nil)
	if len(replica.FailoverLog()) != 2 {
		t.Fatalf("empty SetFailoverLog clobbered the log: %+v", replica.FailoverLog())
	}
}
