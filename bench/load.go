package main

import (
	"math"
	"strconv"
)

// The load generator is owned by the benchmark: key chooser, key names
// and record builder live here and import nothing from internal/ycsb,
// so a later PR cannot move the load by editing the program's own
// generator. Everything derives from (seed, stream id) alone, which
// makes one goroutine's op stream independent of how goroutines
// interleave.

// rng is splitmix64: tiny, fast, and fully specified here, so a Go
// release cannot change the stream a seed produces.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a stream
// id (client number, loader number, ladder, ...).
func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0xd1342543de82ef95}
	r.next()
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn is uniform in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// zipfian is YCSB's generator (Gray et al.) with the standard 0.99
// constant; scrambled spreads the popular ranks over the keyspace by
// hashing, as YCSB's ScrambledZipfianGenerator does.
type zipfian struct {
	n                 int64
	theta             float64
	alpha, zetan, eta float64
}

const zipfTheta = 0.99

func newZipfian(n int64) *zipfian {
	z := &zipfian{n: n, theta: zipfTheta}
	zeta2 := zeta(2, z.theta)
	z.zetan = zeta(n, z.theta)
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - zeta2/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// rank draws a popularity rank in [0, n): rank 0 is the hottest.
func (z *zipfian) rank(r *rng) int64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

func scramble(rank, n int64) int64 {
	h := uint64(14695981039346656037)
	v := uint64(rank)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return int64(h % uint64(n))
}

// keyName renders key number i as "user%012d": zero padding keeps
// lexicographic order equal to numeric order, which the scan checks
// rely on.
func keyName(i int64) string {
	var b [16]byte
	copy(b[:], "user")
	for p := 15; p >= 4; p-- {
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[:])
}

// Records are YCSB's default shape: 10 fields of 100 printable bytes,
// as one JSON object. Every record has the same length, which the
// read check uses.
const (
	fieldCount  = 10
	fieldLength = 100
)

var recordLen = len(buildRecord(0))

const fieldChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"

// buildRecord renders the record a 64-bit value seed stands for. The
// durable-restart check stores only the seed of each acked write and
// rebuilds the bytes to compare.
func buildRecord(valueSeed uint64) []byte {
	r := rng{s: valueSeed}
	buf := make([]byte, 0, fieldCount*(fieldLength+12)+2)
	buf = append(buf, '{')
	for f := 0; f < fieldCount; f++ {
		if f > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `"field`...)
		buf = strconv.AppendInt(buf, int64(f), 10)
		buf = append(buf, '"', ':', '"')
		var bits uint64
		nbits := 0
		for i := 0; i < fieldLength; i++ {
			if nbits == 0 {
				bits, nbits = r.next(), 10 // ten 6-bit chunks per draw
			}
			buf = append(buf, fieldChars[bits&63])
			bits >>= 6
			nbits--
		}
		buf = append(buf, '"')
	}
	return append(buf, '}')
}

// loadValueSeed is the value seed of record i as loaded, so a read of
// a never-updated key can be checked byte for byte too.
func loadValueSeed(seed uint64, i int64) uint64 {
	return (seed+1)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
}

type opKind uint8

const (
	opRead   opKind = iota // Get, or the range query on lib.query-e
	opWrite                // Set, durable Set, or insert of a new key
	numKinds = 2
)

func (k opKind) String() string {
	if k == opRead {
		return "read"
	}
	return "write"
}

// op is one generated operation. Key is a key number (keyName renders
// it); Private marks a write redirected to one of the issuing
// client's own keys (see opStream).
type op struct {
	Kind      opKind
	Key       int64
	Limit     int    // range query only
	ValueSeed uint64 // writes only
	Private   bool
}

// mix describes one workload's op stream.
type mix struct {
	Records   int64
	ReadShare float64
	Zipfian   bool // scrambled zipfian when true, uniform otherwise
	Scan      bool // reads are range queries with LIMIT uniform 1..maxScanLimit
	// Insert makes every write add a new key past Records instead of
	// overwriting (YCSB E); client g of n inserts Records+g, +n, ...
	Insert bool
	// OwnWrites confines client g's writes to keys ≡ g (mod clients),
	// so the last acked value of every key is known to one client.
	OwnWrites bool
}

const (
	maxScanLimit = 100
	// privateKeys is the size of each client's private key range and
	// privateEvery the share of its writes that go there (1 in N).
	privateKeys  = 16
	privateEvery = 16
)

// opStream generates client g's operations. It depends only on
// (mix, seed, g, clients).
type opStream struct {
	m       mix
	r       *rng
	z       *zipfian
	g, n    int64
	inserts int64
	writes  int64
}

func newOpStream(m mix, seed uint64, g, clients int) *opStream {
	s := &opStream{m: m, r: newRNG(seed, uint64(g)), g: int64(g), n: int64(clients)}
	if m.Zipfian {
		s.z = newZipfian(m.Records)
	}
	return s
}

func (s *opStream) key() int64 {
	if s.z != nil {
		return scramble(s.z.rank(s.r), s.m.Records)
	}
	return s.r.intn(s.m.Records)
}

func (s *opStream) next() op {
	if s.r.float() < s.m.ReadShare {
		o := op{Kind: opRead, Key: s.key()}
		if s.m.Scan {
			o.Limit = 1 + int(s.r.intn(maxScanLimit))
		}
		return o
	}
	o := op{Kind: opWrite, ValueSeed: s.r.next()}
	s.writes++
	switch {
	case s.m.Insert:
		o.Key = s.m.Records + s.g + s.n*s.inserts
		s.inserts++
	case s.writes%privateEvery == 0:
		o.Private = true
		o.Key = (s.writes / privateEvery) % privateKeys
	default:
		o.Key = s.key()
		if s.m.OwnWrites {
			// Go's % keeps the dividend's sign, so this lands on a key
			// ≡ g (mod n) in [0, Records) for keys below g as well.
			o.Key -= (o.Key - s.g) % s.n
		}
	}
	return o
}

// privateKeyName is client g's i-th private key. It sorts before every
// "user…" key, so range queries never see it.
func privateKeyName(g int, i int64) string {
	return "priv" + strconv.Itoa(g) + "-" + strconv.FormatInt(i, 10)
}
