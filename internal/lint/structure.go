package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"sort"
	"strings"
)

// Structure holds the module to the shape its "one X" refactors reached.
// Each row of structureRows is one invariant in one of four forms:
//
//   - onlyFrom (A): only the functions in list may refer to subj, or,
//     for a type, make a value of it (a composite literal or new);
//   - bare (B): the bodies of the functions in subj contain none of ban;
//   - methodSet (C): the types in subj declare exactly the methods in
//     list (the exported ones, when list names only exported methods);
//   - absent (D): nothing outside the packages in list declares a name
//     in subj or has type typ.
//
// Rows name objects by import path, then "Name" or "Type.Member" as a
// path.Match glob, and resolve them through go/types; an interface
// method stands for its implementations too. A subject that does not
// exist checks nothing, so it is a finding where the load can judge it:
// in a loaded package, or anywhere in the module when the load is full
// (it holds the root package, as `couchvet ./...` does). A partial load
// skips the rows whose packages it left out.
var Structure = &Analyzer{
	Name:      "structure",
	Doc:       "a second X regrew where a structure-table row allows one",
	RunModule: func(pkgs []*Package) []Diagnostic { return checkRows(pkgs, structureRows) },
}

// ban is what the bodies of a bare row's functions must not contain.
type ban int

const (
	noGo          ban = 1 << iota // a go statement
	noLock                        // a Lock or RLock call
	noLit                         // a composite literal
	noFieldAppend                 // an append to a struct field
	noClock                       // a call of time.Now or time.Since
)

// row is one invariant; what its fields hold depends on its form.
type row struct {
	form func(*rowChecker, *row) // onlyFrom, bare, methodSet or absent
	subj []string                // objects; bare: functions; absent: names
	typ  string                  // onlyFrom: subj's type or one it returns; methodSet: an interface subj implements; absent: a type nothing has
	list []string                // onlyFrom: who may refer; methodSet: the methods, sorted; absent: the packages left out
	ban  ban                     // bare
	why  string                  // the reason a finding gives
}

const internal = ModulePath + "/internal/"

// under names members of package internal/pkg.
func under(pkg string, names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = internal + pkg + "." + n
	}
	return out
}

var bench = []string{ModulePath + "/bench"}

var structureRows = []row{
	// One decider: a cmap function returning a *Map mints one (a Clone is
	// a map to edit).
	{form: onlyFrom, subj: under("cmap", "*"), typ: "*" + internal + "cmap.Map",
		list: append(under("cmap", "*"), under("core", "Decider.rebalanceLocked", "Decider.Failover")...),
		why:  "a second caller is a second decider"},
	// One failure detector: silence becomes a failover in the decider, and
	// the watchdog only reports.
	{form: onlyFrom, subj: under("core", "Decider.Failover"), list: under("core", "Cluster.Failover", "Decider.FailoverSilent"),
		why: "a second caller is a second failure detector"},
	{form: absent, subj: append(under("health", "AutoFailover", "Watchdog.OnTransition"),
		under("transport", "ClusterNode.memberCheck", "NodeOptions.FailoverAfter", "NodeOptions.Watchdog")...),
		why: "Decider.FailoverSilent is the one failure detector"},
	{form: onlyFrom, subj: under("core", "Decider.FailoverSilent"), list: under("core", "Cluster.heartbeatLoop"),
		why: "one detection ticker"},
	{form: bare, ban: noClock, subj: under("core", "Decider.*"),
		why: "the decider reads time only through its clock, or the enumerator stops being exhaustive"},
	// One name per node: a networked process's node is its KV address, and
	// a heartbeat is the only membership message.
	{form: absent, subj: append(under("transport", "ClusterNode.detectLoop", "ClusterNode.onJoin", "ClusterNode.local",
		"NodeOptions.HeartbeatInterval", "ServerConfig.OnJoin"), internal+"memcproto.OpJoin", internal+"core.Cluster.FailoverTimeout"),
		why: "a process's node has one name, and its seed detects with core's ticker"},
	// One router per process: a member routes by its cluster's route table.
	{form: absent, subj: append(under("transport", "NetRouter.SetLocal", "NetRouter.InstallMap", "ClusterNode.Router"),
		internal+"rest.Server.SetKVClient"), why: "a process routes by its cluster's route table"},
	// What a KV op reads on its way to vbucket.Do is published state.
	{form: bare, ban: noLock | noLit, why: "the op path takes no lock and builds nothing", subj: under("core",
		"bucketTopology.Route", "routeTable.hop", "Node.Alive", "Decider.Map", "bucketTopology.current", "Cluster.Node",
		"Cluster.BucketMap", "Cluster.NodeVB", "Node.bucket", "Node.kvVB", "nodeBucket.vb", "loopbackConn.Do",
		"published.all", "published.get")},
	// One writer per socket, frameWriter's drain; countingConn only counts
	// what passes.
	{form: onlyFrom, subj: []string{"net.Conn.Write"}, list: under("transport", "frameWriter.drainLocked", "countingConn.Write"),
		why: "senders write through frameWriter"},
	{form: onlyFrom, subj: []string{"runtime.Gosched"}, list: under("transport", "frameWriter.*"),
		why: "a sender batches on what it can see, not on a blind yield"},
	{form: absent, subj: under("transport", "writeLoop", "writeCoalesced"), why: "writer goroutines are gone"},
	// One queue per DCP stream, pulled by its consumer on its own goroutine.
	{form: absent, typ: "chan " + internal + "dcp.Mutation", why: "consumers pull batches with Next"},
	{form: bare, ban: noGo, subj: under("dcp", "*"), why: "internal/dcp starts no goroutine"},
	{form: bare, ban: noGo, subj: []string{internal + "feed.Feed.drain", internal + "core.nodeBucket.runLink",
		internal + "core.replicaLink.apply", internal + "transport.session.pumpStream", internal + "gsi.Service.backfillIndex"},
		why: "a stream's consumer is one goroutine"},
	{form: methodSet, subj: under("dcp", "MutationStream"), list: []string{"Close", "Next", "StreamUUID"},
		why: "a batch is what Next returned"},
	{form: absent, subj: append(under("dcp", "Stream.pump", "Stream.send", "Stream.kick"),
		internal+"transport.RemoteStream.readLoop", internal+"core.replicaLink.applyRun"), why: "one queue per stream"},
	// One log per vBucket: a mutation is written once, and the flusher and
	// every stream read it through their own cursor.
	{form: absent, subj: append(under("vbucket", "VBucket.queue", "VBucket.queueCond", "VBucket.queueTraces"),
		under("dcp", "Stream.enqueueLive", "Stream.queue", "Stream.lent")...), why: "one log per vBucket, read through cursors"},
	{form: bare, ban: noLock | noFieldAppend, subj: under("vbucket", "VBucket.onMutate"),
		why: "a mutation is written once, to the producer's log"},
	// One feed hub per bucket, which a copy that becomes active is
	// attached to once; views keep one per node.
	{form: onlyFrom, subj: under("feed", "NewHub"), list: []string{internal + "core.Cluster.CreateBucket", internal + "views.NewEngine"},
		why: "a second hub is a second copy of the bucket's producer table"},
	{form: onlyFrom, subj: under("feed", "Hub.AttachVB"),
		list: []string{internal + "core.nodeBucket.attachConsumersLocked", internal + "views.Engine.AttachVB"},
		why:  "an active copy is attached to its bucket's hub and its node's views, once each"},
	{form: absent, subj: slices.Concat(under("gsi", "NewProjector", "Service.projectors", "Projector.AttachVB"),
		under("fts", "Engine.AttachVB"), under("analytics", "Engine.AttachVB")), why: "a service subscribes to the bucket's hub"},
	// Feed.Wait is the only consistency barrier.
	{form: absent, subj: []string{internal + "gsi.waitFor", internal + "views.waitFor", internal + "fts.waitFor",
		internal + "analytics.waitFor", internal + "xdcr.waitFor"}, why: "a consumer waits through feed.Feed.Wait"},
	// One index tree: ScanOptions declares the span (a plan's is
	// planner.Span); scanBounds interprets it, evalSpan evaluates a plan's
	// into one, and the views and the ladder build their own.
	{form: absent, subj: []string{"LowIncl"}, list: []string{internal + "gsi", internal + "planner"}, why: "one span request"},
	{form: onlyFrom, subj: under("gsi", "ScanOptions.Low", "ScanOptions.High", "ScanOptions.LowIncl",
		"ScanOptions.HighIncl", "ScanOptions.EqualKey", "ScanOptions.HasEqual"),
		list: []string{internal + "gsi.scanBounds", internal + "executor.selectExec.evalSpan",
			internal + "views.QueryOptions.spans", bench[0] + ".ladderRun.standaloneQuery"},
		why: "one span rule and one translation"},
	// One executor down to the cache.
	{form: methodSet, subj: under("vbucket", "VBucket"), list: []string{"AckReplica", "ApplyReplica", "Close", "Do",
		"DrainDisk", "Get", "HighSeqno", "PersistedSeqno", "Producer", "QueueDepth", "ReplicationAwaited", "Set",
		"SetReplicaSet", "SetState", "State", "WaitPersist", "WaitReplicas", "WarmUp"},
		why: "a KV op is a table row and an arm of Do, not a method"},
	// One executor per execution, from the pool: its arena is cleared
	// before the next execution takes it.
	{form: onlyFrom, subj: under("executor", "selectExec"), list: under("executor", "newExec", "selectExec.free"),
		why: "an executor comes from the pool"},
	// One evaluator over slots.
	{form: methodSet, subj: under("n1ql", "*"), typ: internal + "n1ql.Expr", list: []string{"String", "eval"},
		why: "an expression runs only through eval"},
	{form: absent, subj: under("n1ql", "Eval?*", "[A-Z]*Eval*"), why: "Eval is the only exported evaluator"},
	{form: absent, subj: under("n1ql", "parser.errorf", "parser.orExpr", "parser.andExpr", "parser.notExpr", "parser.cmpExpr",
		"parser.addExpr", "parser.mulExpr", "binOpText"), why: "one precedence table and one error path"},
	// One commit path: an fsync is storage's (a file's group-commit
	// leader, a compaction's rewrite, a device round); cbtop flushes its
	// terminal.
	{form: onlyFrom, subj: []string{"os.File.Sync"},
		list: append(under("storage", "VBFile.syncTo", "VBFile.compactSwap", "Syncer.Sync"), ModulePath+"/cmd/cbtop.main"),
		why:  "a log commits through storage.VBFile"},
	// One stage instrument: a timed step that parents no span is a
	// trace.Stage, whose one call records its histogram and its span, so
	// only these hops and roots open a span.
	{form: onlyFrom, subj: under("trace", "Trace.StartSpan", "Span.Child", "Tracer.Start", "Tracer.Force", "Tracer.Join"),
		list: slices.Concat(under("trace", "*"), under("core", "Client.do", "Client.route", "Cluster.Query", "nodeBucket.maintenanceLoop"),
			under("vbucket", "VBucket.Do", "VBucket.ApplyReplica"), under("feed", "Feed.Attach"), under("xdcr", "Replicator.send"),
			under("transport", "session.handleKV"), under("rest", "startDocSpan")),
		why: "a timed step is a trace.Stage"},
	// One load generator: couchbench.
	{form: absent, subj: []string{"ycsb", "*[Zz][Ii][Pp][Ff]*"}, list: bench, why: "couchbench is the load generator"},
	{form: onlyFrom, subj: []string{"math/rand.NewZipf", "math/rand/v2.NewZipf"}, list: []string{bench[0] + ".*"},
		why: "couchbench is the load generator"},
	// One statement interpreter for the lock rules.
	{form: absent, subj: under("lint", "lockWalker.walkStmt", "orderWalker.stmt", "accessWalker.walkStmt",
		"copyHeld", "copyHeldSet", "copyBoolSet"), why: "the lock rules share heldWalker"},
}

// rowChecker is one run of the rows over a load.
type rowChecker struct {
	fset     *token.FileSet
	loaded   map[string]*Package
	imported map[string]*types.Package // by the loaded packages
	full     bool
	members  map[*types.Package]map[string]types.Object
	funcs    map[*Package][]*ast.FuncDecl
	strs     map[types.Type]string
	seen     map[string]bool
	diags    []Diagnostic
}

func checkRows(pkgs []*Package, rows []row) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	c := &rowChecker{fset: pkgs[0].Fset, loaded: map[string]*Package{}, imported: map[string]*types.Package{},
		members: map[*types.Package]map[string]types.Object{}, funcs: map[*Package][]*ast.FuncDecl{},
		strs: map[types.Type]string{}, seen: map[string]bool{}}
	for _, p := range pkgs {
		c.loaded[p.Path] = p
		for _, imp := range p.Types.Imports() {
			c.imported[imp.Path()] = imp
		}
	}
	c.full = c.loaded[ModulePath] != nil
	for i := range rows {
		rows[i].form(c, &rows[i])
	}
	return c.diags
}

// report adds one finding per row and line.
func (c *rowChecker) report(pos token.Pos, r *row, format string, args ...any) {
	p := c.fset.Position(pos)
	if key := fmt.Sprintf("%s:%d:%p", p.Filename, p.Line, r); !c.seen[key] {
		c.seen[key] = true
		c.diags = append(c.diags, Diagnostic{Pos: p, Rule: "structure", Message: fmt.Sprintf(format, args...) + " — " + r.why})
	}
}

// missing reports a row name that matched nothing, where the load can
// judge it: in lp, the loaded package, or in any module package when
// the load is full.
func (c *rowChecker) missing(r *row, s string, lp *Package) {
	if p, _ := splitName(s); lp == nil {
		if !c.full || !inModule(p) {
			return
		}
		lp = c.loaded[ModulePath]
	}
	c.report(lp.Files[0].Name.Pos(), r, "the row names %s, which does not exist: a renamed row checks nothing", shortLock(s))
}

// resolve returns what s names and keep accepts, by member name, in the
// package's loaded copy or in a standard package a loaded one imports.
func (c *rowChecker) resolve(r *row, s string, keep func(types.Object) bool) map[string]types.Object {
	p, glob := splitName(s)
	lp, tp := c.loaded[p], c.imported[p]
	if lp != nil {
		tp = lp.Types
	} else if inModule(p) {
		tp = nil
	}
	objs := map[string]types.Object{}
	if tp != nil {
		for name, obj := range c.membersOf(tp) {
			if match(glob, name) && keep(obj) {
				objs[name] = obj
			}
		}
	}
	if len(objs) == 0 {
		c.missing(r, s, lp)
	}
	return objs
}

// membersOf indexes what rows can name in tp: its package-level objects,
// and each named type's methods and fields as "Type.Member".
func (c *rowChecker) membersOf(tp *types.Package) map[string]types.Object {
	if m := c.members[tp]; m != nil {
		return m
	}
	m := map[string]types.Object{}
	for _, name := range tp.Scope().Names() {
		obj := tp.Scope().Lookup(name)
		m[name] = obj
		named, ok := obj.Type().(*types.Named)
		if !ok || !isType(obj) {
			continue
		}
		for i := range named.NumMethods() {
			m[name+"."+named.Method(i).Name()] = named.Method(i)
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				m[name+"."+u.Field(i).Name()] = u.Field(i)
			}
		case *types.Interface:
			for i := range u.NumMethods() {
				m[name+"."+u.Method(i).Name()] = u.Method(i)
			}
		}
	}
	c.members[tp] = m
	return m
}

// funcsOf lists lp's function declarations in source order.
func (c *rowChecker) funcsOf(lp *Package) []*ast.FuncDecl {
	if fs, ok := c.funcs[lp]; ok || lp == nil {
		return fs
	}
	var fs []*ast.FuncDecl
	for _, f := range lp.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && lp.Info.Defs[fd.Name] != nil {
				fs = append(fs, fd)
			}
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Pos() < fs[j].Pos() })
	c.funcs[lp] = fs
	return fs
}

func onlyFrom(c *rowChecker, r *row) {
	objs := map[types.Object]string{}       // subject -> the name a finding gives it
	ifaces := map[string]*types.Interface{} // an interface-method subject's name -> its interface
	typed := false                          // a subject is a type
	for _, s := range r.subj {
		for name, obj := range c.resolve(r, s, func(o types.Object) bool { return r.typ == "" || hasType(o, r.typ) }) {
			objs[obj], typed = shortLock(obj.Pkg().Path()+"."+name), typed || isType(obj)
			// A loaded package's importers see another copy of it.
			if twin := c.imported[obj.Pkg().Path()]; twin != nil && c.membersOf(twin)[name] != nil {
				objs[c.membersOf(twin)[name]] = objs[obj]
			}
			if fn, ok := obj.(*types.Func); ok && interfaceMethod(fn) {
				ifaces[fn.Name()] = fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			}
		}
	}
	for _, lp := range c.loaded {
		refer := func(pos token.Pos, subj string) {
			fs, fn := c.funcsOf(lp), ""
			if i := sort.Search(len(fs), func(i int) bool { return fs[i].End() > pos }); i < len(fs) && fs[i].Pos() <= pos {
				fn = memberName(lp.Info.Defs[fs[i].Name])
			}
			for _, allowed := range r.list {
				if p, glob := splitName(allowed); p == lp.Path && fn != "" && match(glob, fn) {
					return
				}
			}
			c.report(pos, r, "%s refers to %s", shortLock(strings.TrimSuffix(lp.Path+"."+fn, ".")), subj)
		}
		for id, obj := range lp.Info.Uses {
			if subj, ok := objs[obj]; ok && !isType(obj) {
				refer(id.Pos(), subj)
			}
		}
		for _, f := range lp.Files {
			if typed {
				ast.Inspect(f, func(n ast.Node) bool { madeHere(lp, n, objs, refer); return true })
			}
		}
		for sel, s := range lp.Info.Selections {
			if iface := ifaces[sel.Sel.Name]; iface != nil && s.Kind() == types.MethodVal && implements(s.Recv(), iface) {
				refer(sel.Sel.Pos(), shortLock(s.Obj().Pkg().Path()+"."+memberName(s.Obj())))
			}
		}
	}
}

// madeHere reports, through refer, n if it makes a value of a type in
// objs: a composite literal of it, or new of it.
func madeHere(lp *Package, n ast.Node, objs map[types.Object]string, refer func(token.Pos, string)) {
	var made ast.Expr // the type a value is made of
	switch n := n.(type) {
	case *ast.CompositeLit:
		made = n
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 && lp.Info.Uses[id] == types.Universe.Lookup("new") {
			made = n.Args[0]
		}
	}
	if nt := namedOf(lp.Info.TypeOf(made)); made != nil && nt != nil {
		if subj, ok := objs[nt.Obj()]; ok {
			refer(made.Pos(), subj)
		}
	}
}

func bare(c *rowChecker, r *row) {
	for _, s := range r.subj {
		p, glob := splitName(s)
		lp, found := c.loaded[p], false
		for _, fd := range c.funcsOf(lp) {
			name := memberName(lp.Info.Defs[fd.Name])
			if !match(glob, name) || fd.Body == nil {
				continue
			}
			found = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				b, what := ban(0), ""
				switch n := n.(type) {
				case *ast.GoStmt:
					b, what = noGo, "starts a goroutine"
				case *ast.CallExpr:
					if _, op := mutexOp(lp, n); op == opLock {
						b, what = noLock, "takes a lock"
					} else if appendsToField(lp, n) {
						b, what = noFieldAppend, "appends to a field"
					} else if timeFunc(calleeFunc(lp, n), "Now", "Since") {
						b, what = noClock, "reads the clock"
					}
				case *ast.CompositeLit:
					b, what = noLit, "builds a composite literal"
				}
				if r.ban&b != 0 {
					c.report(n.Pos(), r, "%s %s", name, what)
				}
				return true
			})
		}
		if !found {
			c.missing(r, s, lp)
		}
	}
}

// appendsToField reports whether call is append(x.f, …) for a field f.
func appendsToField(lp *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 || lp.Info.Uses[id] != types.Universe.Lookup("append") {
		return false
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	return ok && lp.Info.Selections[sel] != nil && lp.Info.Selections[sel].Kind() == types.FieldVal
}

// timeFunc reports whether fn is a function of package time by one of names.
func timeFunc(fn *types.Func, names ...string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && slices.Contains(names, fn.Name())
}

func methodSet(c *rowChecker, r *row) {
	var iface *types.Interface
	if r.typ != "" {
		for _, obj := range c.resolve(r, r.typ, isType) {
			iface, _ = obj.Type().Underlying().(*types.Interface)
		}
		if iface == nil {
			return
		}
	}
	exported := !slices.ContainsFunc(r.list, func(m string) bool { return !token.IsExported(m) })
	for _, s := range r.subj {
		for _, tn := range c.resolve(r, s, func(o types.Object) bool { return isType(o) && (iface == nil || implements(o.Type(), iface)) }) {
			var got []string
			for name, m := range c.membersOf(tn.Pkg()) {
				if _, ok := m.(*types.Func); ok && strings.HasPrefix(name, tn.Name()+".") && (!exported || m.Exported()) {
					got = append(got, m.Name())
				}
			}
			if sort.Strings(got); !slices.Equal(got, r.list) {
				c.report(tn.Pos(), r, "%s has methods %v, want exactly %v", tn.Name(), got, r.list)
			}
		}
	}
}

func absent(c *rowChecker, r *row) {
	if r.typ != "" && len(c.resolve(r, r.typ[strings.LastIndexAny(r.typ, " *")+1:], isType)) == 0 {
		return
	}
	for _, lp := range c.loaded {
		if slices.Contains(r.list, lp.Path) {
			continue
		}
		for _, s := range r.subj {
			p, glob := splitName(s)
			if p != "" && p != lp.Path {
				continue
			} else if p == "" && match(glob, lp.Types.Name()) {
				c.report(lp.Files[0].Name.Pos(), r, "package %s", lp.Types.Name())
			}
			if strings.Contains(glob, ".") { // a method or field: "Type.Member"
				for name, obj := range c.membersOf(lp.Types) {
					if match(glob, name) {
						c.report(obj.Pos(), r, "%s declares %s", shortLock(lp.Path), name)
					}
				}
				continue
			}
			for id, obj := range lp.Info.Defs {
				if obj != nil && match(glob, id.Name) {
					c.report(id.Pos(), r, "%s declares %s", shortLock(lp.Path), id.Name)
				}
			}
		}
		if r.typ == "" {
			continue
		}
		for id, obj := range lp.Info.Defs {
			if obj != nil && c.typeStr(obj.Type()) == r.typ {
				c.report(id.Pos(), r, "%s is a %s", id.Name, shortLock(r.typ))
			}
		}
		for e, tv := range lp.Info.Types {
			if tv.IsValue() && c.typeStr(tv.Type) == r.typ {
				c.report(e.Pos(), r, "a value of type %s", shortLock(r.typ))
			}
		}
	}
	for _, s := range r.subj {
		if p, _ := splitName(s); p != "" && c.loaded[p] == nil {
			c.missing(r, s, nil)
		}
	}
}

// typeStr renders t as absent rows name types; a channel type, named or
// not, is "chan " and its element, whatever its direction.
func (c *rowChecker) typeStr(t types.Type) string {
	if s, ok := c.strs[t]; ok {
		return s
	}
	s := types.TypeString(t, nil)
	if ch, ok := t.Underlying().(*types.Chan); ok {
		s = "chan " + types.TypeString(ch.Elem(), nil)
	}
	c.strs[t] = s
	return s
}

// splitName cuts a row name into its package path and the glob after
// it; a name without a path is a bare glob.
func splitName(s string) (pkg, glob string) {
	i := strings.LastIndex(s, "/") + 1
	if j := strings.Index(s[i:], "."); j >= 0 {
		return s[:i+j], s[i+j+1:]
	}
	return "", s
}

func match(glob, name string) bool {
	ok, _ := path.Match(glob, name)
	return ok
}

func isType(obj types.Object) bool {
	_, ok := obj.(*types.TypeName)
	return ok
}

// memberName is how a row names obj in its package: "Name", or
// "Type.Name" for a method (a generic receiver by its type's name).
func memberName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if n := namedOf(fn.Type().(*types.Signature).Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}

// hasType reports whether obj is of type t or is a function returning one.
func hasType(obj types.Object, t string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return types.TypeString(obj.Type(), nil) == t
	}
	res := fn.Type().(*types.Signature).Results()
	for i := range res.Len() {
		if types.TypeString(res.At(i).Type(), nil) == t {
			return true
		}
	}
	return false
}
