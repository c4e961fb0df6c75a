package cache

import (
	"strconv"

	"couchgo/internal/events"
)

// The item pager implements the paper's value-eviction policy: "By
// default the key and the metadata for every key in the bucket will be
// kept in memory, while the associated values can be evicted based on
// usage." Eviction triggers when the bucket's memory use crosses the
// high watermark and stops once it falls below the low watermark.

// Quota describes a bucket memory quota with its watermarks. The real
// system defaults to high = 85% and low = 75% of the quota.
type Quota struct {
	Bytes int64
	// HighRatio and LowRatio default to 0.85 / 0.75 when zero.
	HighRatio, LowRatio float64
}

func (q Quota) high() int64 {
	r := q.HighRatio
	if r == 0 {
		r = 0.85
	}
	return int64(float64(q.Bytes) * r)
}

func (q Quota) low() int64 {
	r := q.LowRatio
	if r == 0 {
		r = 0.75
	}
	return int64(float64(q.Bytes) * r)
}

// Pager evicts not-recently-used resident values across a set of hash
// tables until memory falls below the low watermark. Only values whose
// mutations have been persisted may be evicted (the value must be
// recoverable from the storage engine).
type Pager struct {
	Quota Quota
	// FullEviction removes whole items (key + metadata + value) instead
	// of just values — §4.3.3: "users also have the option to enable
	// the eviction of the key and metadata based on usage."
	FullEviction bool
}

// MemUsed sums memory accounting over tables.
func MemUsed(tables []*HashTable) int64 {
	var total int64
	for _, t := range tables {
		total += t.Stats().MemUsed
	}
	return total
}

// NeedsEviction reports whether use has crossed the high watermark.
func (p *Pager) NeedsEviction(tables []*HashTable) bool {
	return MemUsed(tables) > p.Quota.high()
}

// Run performs pager passes until memory drops below the low watermark
// or no progress can be made. persistedSeqno gives, per table (parallel
// slice), the highest seqno known durable; dirty values are never
// evicted. It returns the number of values evicted.
func (p *Pager) Run(tables []*HashTable, persistedSeqno []uint64, now int64) int {
	evicted := p.run(tables, persistedSeqno, now)
	if evicted > 0 {
		// Journal the pass: watermark-driven eviction is the signal
		// FlexKV-style tiering decisions hang off, and health's
		// residency check should agree with what actually happened.
		e := events.New(events.CacheEvent, events.SevInfo, "pager eviction pass")
		e.Fields = map[string]string{
			"evicted":        strconv.Itoa(evicted),
			"mem_used":       strconv.FormatInt(MemUsed(tables), 10),
			"low_watermark":  strconv.FormatInt(p.Quota.low(), 10),
			"high_watermark": strconv.FormatInt(p.Quota.high(), 10),
		}
		events.Default.Publish(e)
	}
	return evicted
}

func (p *Pager) run(tables []*HashTable, persistedSeqno []uint64, now int64) int {
	evicted := 0
	low := p.Quota.low()
	for pass := 0; pass < 4; pass++ {
		progress := false
		for i, t := range tables {
			// What is still to free is summed once per table; the sweep
			// counts it down by what it frees.
			need := MemUsed(tables) - low
			if need <= 0 {
				return evicted
			}
			var ps uint64
			if i < len(persistedSeqno) {
				ps = persistedSeqno[i]
			}
			if n := t.sweep(now, ps, p.FullEviction, need); n > 0 {
				evicted += n
				progress = true
			}
		}
		if !progress && pass >= 2 {
			break
		}
	}
	return evicted
}

// ExpiryPager lazily-expired documents are reaped on access; this pager
// proactively deletes expired documents so tombstones flow to replicas
// and indexes even for never-touched keys.
func ExpiryPager(tables []*HashTable, now int64) int {
	reaped := 0
	for _, t := range tables {
		// The common case — no document in the table carries a TTL —
		// must not cost a full-table scan every pager tick.
		if t.expiring.Load() == 0 {
			continue
		}
		var expired []string
		t.ForEach(func(it Item) bool {
			if it.Expiry != 0 && now >= it.Expiry {
				expired = append(expired, it.Key)
			}
			return true
		})
		for _, key := range expired {
			if _, err := t.Get(key, now); err == ErrKeyNotFound {
				reaped++ // Get performed the lazy delete
			}
		}
	}
	return reaped
}
