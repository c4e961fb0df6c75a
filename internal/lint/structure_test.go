package lint

import (
	"slices"
	"testing"
)

// structureFixtures are packages at the paths the rows name, each
// putting back the second X its rows forbid.
var structureFixtures = []fixture{
	{name: "trace", path: internal + "trace", src: `package trace

type (Trace struct{}; Span struct{}; Tracer struct{})

func (t *Trace) StartSpan(string) *Span { return nil }; func (s *Span) Child(string) *Span { return nil }
func (tr *Tracer) Start() {}; func (tr *Tracer) Force() {}; func (tr *Tracer) Join() {}
`},
	{name: "cmap", path: internal + "cmap", src: `package cmap

type Map struct{}

func Build() *Map { return nil }; func (m *Map) Clone() *Map { return m }
`},
	{name: "feed", path: internal + "feed", src: `package feed

import "couchgo/internal/trace"

type (Feed struct{}; Hub struct{})

func (f *Feed) Attach(t *trace.Trace) { t.StartSpan("feed:rollback") }
func (f *Feed) drain(t *trace.Trace) { t.StartSpan("feed:apply") } // want: structure
func NewHub() *Hub { return &Hub{} }; func (h *Hub) AttachVB() {}
`},
	{name: "core", path: internal + "core", src: `package core

import ("sync"; "time"; "couchgo/internal/cmap"; "couchgo/internal/feed")

type Decider struct{ mu sync.Mutex; now func() time.Time }
type Cluster struct{ mu sync.Mutex }
type (Node struct{}; nodeBucket struct{}; loopbackConn struct{}; replicaLink struct{})
type (bucketTopology struct{ mu sync.Mutex }; routeTable struct{}; Hop struct{})
type published[K comparable, V any] struct{}

func (d *Decider) Failover() *cmap.Map { return cmap.Build() }; func (d *Decider) Map() {}
func (d *Decider) FailoverSilent() { d.Failover() }; func (c *Cluster) Failover(d *Decider) { d.Failover() }
func (c *Cluster) heartbeatLoop(d *Decider) { d.FailoverSilent(); d.Failover() } // want: structure
func (c *Cluster) detectLoop(d *Decider) { d.FailoverSilent() } // want: structure
func (d *Decider) Form() *cmap.Map { return cmap.Build().Clone() } // want: structure
func (d *Decider) Heard() time.Time { return d.now() }
func (d *Decider) silent(at time.Time) bool { return time.Now().Sub(at) > 0 } // want: structure
func (c *Cluster) Node() { c.mu.Lock() } // want: structure
func (c *Cluster) BucketMap() any { return []int{} } // want: structure
func (c *Cluster) NodeVB() {}
func (n *Node) Alive() {}; func (n *Node) bucket() {}; func (n *Node) kvVB() {}; func (t *routeTable) hop() {}
func (b *nodeBucket) vb() {}; func (loopbackConn) Do() {}; func (b *bucketTopology) current() {}
func (b *bucketTopology) Route() Hop {
	b.mu.Lock() // want: structure
	return Hop{} // want: structure
}
func (p *published[K, V]) all() {}; func (p *published[K, V]) get() {}; func (l *replicaLink) apply() {}
func (b *nodeBucket) runLink() { go b.vb() } // want: structure
func (l *replicaLink) applyRun() {} // want: structure
type span struct{ LowIncl bool } // want: structure
func (c *Cluster) CreateBucket() *feed.Hub { return feed.NewHub() }
func (n *Node) addBucket() *feed.Hub { return feed.NewHub() } // want: structure
func (b *nodeBucket) attachConsumersLocked(h *feed.Hub) { h.AttachVB() }
func (b *nodeBucket) promote(h *feed.Hub) { h.AttachVB() } // want: structure
`},
	{name: "transport", path: internal + "transport", src: `package transport

import ("net"; "runtime")

type frameWriter struct{ nc net.Conn }
type session struct{ tcp *net.TCPConn }

func (w *frameWriter) drainLocked(b []byte) { w.nc.Write(b); runtime.Gosched() }; func (s *session) pumpStream() {}
func (w *frameWriter) direct(b []byte) { w.nc.Write(b) } // want: structure
func (s *session) reply(b []byte) { s.tcp.Write(b) } // want: structure
func (s *session) yield() { runtime.Gosched() } // want: structure
func writeLoop() {} // want: structure

type NodeOptions struct {
	FailoverAfter int // want: structure
	Watchdog      any // want: structure
}
type ClusterNode struct{}

func (n *ClusterNode) memberCheck() {} // want: structure
func (n *ClusterNode) detectLoop() {} // want: structure

type NetRouter struct{}

func (r *NetRouter) SetLocal() {} // want: structure
`},
	{name: "health", path: internal + "health", src: `package health

type Watchdog struct{}

func (w *Watchdog) OnTransition(fn func()) {} // want: structure
func AutoFailover(w *Watchdog) {} // want: structure
`},
	{name: "dcp", path: internal + "dcp", src: `package dcp

type Mutation struct{}
type MutationStream interface { Close(); Next() []Mutation; StreamUUID() uint64; Len() int } // want: structure
type Stream struct{ c chan Mutation } // want: structure
type queue chan Mutation // want: structure

func (s *Stream) open() { s.c = make(chan Mutation) } // want: structure
func (s *Stream) relay(in <-chan Mutation) queue { return make(queue) } // want: structure
func (s *Stream) pump() { go func() {}() } // want: structure structure
func (s *Stream) enqueueLive() {} // want: structure
`},
	{name: "gsi", path: internal + "gsi", src: `package gsi

import "os"

type ScanOptions struct{ Low, High, EqualKey []any; LowIncl, HighIncl, HasEqual bool }
type Service struct{}

func scanBounds(o ScanOptions) bool { return o.LowIncl || o.HasEqual }; func (s *Service) backfillIndex() {}
func NewProjector() {} // want: structure
func low(o ScanOptions) []any { return o.Low } // want: structure
func waitFor() {} // want: structure
func commit(f *os.File) error { return f.Sync() } // want: structure
`},
	{name: "storage", path: internal + "storage", src: `package storage

import "os"

type VBFile struct{ f *os.File }

func (v *VBFile) syncTo() error { return v.f.Sync() }
`},
	{name: "vbucket", path: internal + "vbucket", src: `package vbucket

type VBucket struct { // want: structure
	queue []int // want: structure
}

func (v *VBucket) Do() {}
func (v *VBucket) onMutate() { v.queue = append(v.queue, 1) } // want: structure
`},
	{name: "n1ql", path: internal + "n1ql", src: `package n1ql

type Expr interface { String() string; eval() any }
type Ident struct{} // want: structure

func (Ident) String() string { return "" }; func (Ident) eval() any { return nil }; func (Ident) Width() int { return 0 }
func EvalAll() {} // want: structure
type parser struct{}; func (p *parser) cmpExpr() {} // want: structure
`},
	{name: "lint", path: internal + "lint", src: "package lint\n\nfunc copyHeld() {} // want: structure\n"},
	{name: "ycsb", path: internal + "ycsb", src: `package ycsb // want: structure

import ("math/rand"; v2 "math/rand/v2")

var theta = rand.NewZipf(nil, 1.1, 1, 9) // want: structure
var theta2 = v2.NewZipf(nil, 1.1, 1, 9) // want: structure
var zipfian = 0.99 // want: structure
`},
}

// executorFixture refers to gsi's span fields from another package, and
// makes an executor outside the pool.
var executorFixture = fixture{name: "executor", path: internal + "executor", src: `package executor

import "couchgo/internal/gsi"

type selectExec struct{ p any }

func (s *selectExec) evalSpan(o gsi.ScanOptions) bool { return o.LowIncl }
func plan(o gsi.ScanOptions) bool { return o.HighIncl } // want: structure
func newExec() *selectExec { return new(selectExec) }
func (s *selectExec) free() { *s = selectExec{} }
func mutate(p any) *selectExec { return &selectExec{p: p} } // want: structure
func run(ex *selectExec) { var keep []selectExec; keep = append(keep, *ex, selectExec{}) } // want: structure
`}

// TestStructure runs the rule table over the fixtures: every finding is a
// // want: line, and every row fails on some fixture, so a row that
// cannot fail is caught as surely as one that fails the tree.
func TestStructure(t *testing.T) {
	pkgs := loadFixtures(t, structureFixtures...)
	// As under Load, executor sees gsi through a copy of its own.
	gsi := slices.IndexFunc(structureFixtures, func(fx fixture) bool { return fx.name == "gsi" })
	pkgs = append(pkgs, loadFixtures(t, structureFixtures[gsi], executorFixture)[1])
	compareWants(t, runRules(pkgs, []*Analyzer{Structure}), pkgs)
	for i := range structureRows {
		if len(checkRows(pkgs, structureRows[i:i+1])) == 0 {
			t.Errorf("row %d (%s) fails on no fixture", i, structureRows[i].why)
		}
	}
}

// TestStructureMissingSubject: a row naming something that does not
// exist is a finding in a full load (one holding the module's root
// package), whether its package lost the name or is gone, and is
// skipped by a partial load that left its package out.
func TestStructureMissingSubject(t *testing.T) {
	pkgs := loadFixtures(t, fixture{name: "root", path: ModulePath, src: "package couchgo\n"},
		fixture{name: "here", path: internal + "fixturehere", src: "package fixturehere\n"},
		fixture{name: "other", path: internal + "fixtureother", src: "package fixtureother\n"})
	root, here, other := pkgs[0], pkgs[1], pkgs[2]
	rows := []row{{form: bare, ban: noGo, subj: under("fixturehere", "Gone"), why: "fixture"}}
	for i, c := range []struct {
		load []*Package
		want int
	}{{[]*Package{root, here, other}, 1}, {[]*Package{root, other}, 1}, {[]*Package{here}, 1}, {[]*Package{other}, 0}} {
		if got := len(checkRows(c.load, rows)); got != c.want {
			t.Errorf("load %d: %d findings, want %d", i, got, c.want)
		}
	}
}
